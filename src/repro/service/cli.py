"""``python -m repro.service`` — serve, bench and poke the KV service.

Subcommands:

* ``serve`` — stand up a TCP server around a fresh sharded store;
* ``bench`` — the deterministic loopback load bench (requests/sec,
  p50/p99 latency, history/response digests; ``--out`` writes the JSON
  document CI archives as ``BENCH_service.json``);
* ``put`` / ``get`` / ``stats`` — one-shot TCP client operations.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, List, Optional

from ..registers.base import QuorumParams
from .client import KVClient
from .loadgen import run_loopback_load
from .server import KVService, serve_tcp


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=4,
                        help="independent cluster pools (default 4)")
    parser.add_argument("--n", type=int, default=9,
                        help="servers per shard (default 9)")
    parser.add_argument("--t", type=int, default=1,
                        help="Byzantine tolerance per shard (default 1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="store seed (default 0)")
    parser.add_argument("--store-clients", type=int, default=2,
                        help="logical store clients c1..cm (default 2)")


def _add_endpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7907)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Asyncio service layer over the sharded KV store")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run a TCP server")
    _add_endpoint_arguments(serve)
    _add_store_arguments(serve)

    bench = commands.add_parser("bench",
                                help="loopback load bench (deterministic)")
    _add_store_arguments(bench)
    bench.add_argument("--clients", type=int, default=8,
                       help="concurrent loopback connections (default 8)")
    bench.add_argument("--lanes", type=int, default=8,
                       help="logical workload lanes (default 8)")
    bench.add_argument("--rounds", type=int, default=4,
                       help="batched put+get rounds per lane (default 4)")
    bench.add_argument("--keys-per-lane", type=int, default=4,
                       help="keys per lane (default 4)")
    bench.add_argument("--out", default=None,
                       help="write the JSON report here")

    put = commands.add_parser("put", help="one-shot PUT over TCP")
    _add_endpoint_arguments(put)
    put.add_argument("--client", default=None,
                     help="logical store client (default: server's first)")
    put.add_argument("key")
    put.add_argument("value", help="JSON value (bare strings accepted)")

    get = commands.add_parser("get", help="one-shot GET over TCP")
    _add_endpoint_arguments(get)
    get.add_argument("--client", default=None)
    get.add_argument("key")

    stats = commands.add_parser("stats", help="server counters and digests")
    _add_endpoint_arguments(stats)
    return parser


def _parse_value(raw: str) -> Any:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


async def _serve(args: argparse.Namespace) -> int:
    service = KVService(shard_count=args.shards, n=args.n, t=args.t,
                        seed=args.seed, client_count=args.store_clients)
    server, host, port = await serve_tcp(service, args.host, args.port)
    print(f"repro.service listening on {host}:{port} "
          f"({args.shards} shards x n={args.n}, t={args.t}, "
          f"seed={args.seed})")
    try:
        await asyncio.Event().wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await server.shutdown()
    return 0


def _bench(args: argparse.Namespace) -> int:
    report = run_loopback_load(
        clients=args.clients, lanes=args.lanes, rounds=args.rounds,
        keys_per_lane=args.keys_per_lane, shards=args.shards, n=args.n,
        t=args.t, seed=args.seed, store_clients=args.store_clients)
    document = report.to_dict()
    print(f"loopback bench: {report.ops} ops in {report.requests} "
          f"requests over {report.clients} connection(s)")
    print(f"  {report.requests_per_sec:.1f} req/s, "
          f"{report.ops_per_sec:.1f} ops/s, "
          f"p50 {report.p50_ms:.2f} ms, p99 {report.p99_ms:.2f} ms")
    print(f"  history_digest  {report.history_digest}")
    print(f"  response_digest {report.response_digest}")
    if report.mismatches:
        print(f"  !! {report.mismatches} batch(es) returned unexpected "
              "values")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  wrote {args.out}")
    return 1 if report.mismatches else 0


async def _one_shot(args: argparse.Namespace) -> int:
    client_kwargs = {}
    if getattr(args, "client", None):
        client_kwargs["client"] = args.client
    async with KVClient.tcp(args.host, args.port, **client_kwargs) as client:
        if args.command == "put":
            await client.put(args.key, _parse_value(args.value))
            print("ok")
        elif args.command == "get":
            print(json.dumps(await client.get(args.key), sort_keys=True))
        else:
            print(json.dumps(await client.stats(), indent=2,
                             sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a size the store would reject deep inside, with a traceback naming
    # no flag, is a usage error naming it
    for name, least in (("shards", 1), ("n", 1), ("t", 0),
                        ("store_clients", 1), ("clients", 1), ("lanes", 1),
                        ("rounds", 1), ("keys_per_lane", 1)):
        value = getattr(args, name, least)
        if value < least:
            parser.error(f"--{name.replace('_', '-')} must be at least "
                         f"{least}, got {value}")
    if hasattr(args, "n") and \
            not QuorumParams(args.n, args.t).satisfies_resilience:
        parser.error(f"--n {args.n} is too small for --t {args.t}: each "
                     f"shard needs n >= 8t + 1 = {8 * args.t + 1}")
    try:
        if args.command == "serve":
            try:
                return asyncio.run(_serve(args))
            except KeyboardInterrupt:
                return 0
        if args.command == "bench":
            return _bench(args)
        return asyncio.run(_one_shot(args))
    except BrokenPipeError:
        # stdout piped into a pager/head that exited early — not an error
        return 0
    except OSError as exc:      # e.g. nothing listens at --host:--port
        endpoint = f" {args.host}:{args.port}:" if "port" in args else ""
        print(f"{args.command}:{endpoint} {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
