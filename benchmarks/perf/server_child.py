"""The serving workloads' server process (benchmark-owned entry point).

Rebuilds the workload's dataset and model from the seed, loads the
checkpoint the parent wrote, builds the engine (index included) and
serves until the parent closes this process's stdin — so a parent that
dies takes its server with it.
"""

from __future__ import annotations

import argparse
import sys
import threading


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    from benchmarks.perf.serving import SHAPES, build_engine
    from repro.serve.server import RecommendationServer

    engine = build_engine(SHAPES[args.workload], args.seed, args.quick, args.checkpoint)
    server = RecommendationServer(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, name="bench-server")
    thread.start()
    print(f"READY {server.address[1]}", flush=True)
    sys.stdin.read()
    server.shutdown()
    engine.close()
    thread.join(timeout=10.0)
    return 0 if not thread.is_alive() else 1


if __name__ == "__main__":
    sys.exit(main())
