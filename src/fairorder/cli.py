"""Command-line interface.

Subcommands:
  simulate CONFIG          run a config-file experiment, write its CSV
  sro-demo                 reveal/prove/verify one oracle value

Every table is made from a config file: the bound table is a
``bounds_table`` config and the bracketing attack a ``sandwich`` one.

Exit codes: 0 success, 2 usage, 3 config/contract, 4 I/O, 5 oracle
protocol failure, 1 anything else.  Errors print one machine-readable
line: ``error category=<cat>: <message>``.
"""

from __future__ import annotations

import argparse
import sys

from .domain import ContractError, sha256
from .harness import ConfigError, emit_csv, parse_config, run_experiment
from .netmodel import TopologyError
from .sro import Backend, RevealRequest, SroConfig, SroError, SroHandle, verify


def _cmd_simulate(args) -> int:
    config = parse_config(args.config)
    try:
        result = run_experiment(config)
    except ConfigError as exc:  # a value only the run can check: name the file too
        raise ConfigError(f"{args.config}: {exc}") from exc
    output = args.output or config.output
    if output:
        emit_csv(result, output)
        print(f"wrote {output}")
    else:
        sys.stdout.write(result.to_csv_text())
    return 0


def _cmd_sro_demo(args) -> int:
    backend = Backend(args.backend)
    config = SroConfig(n=args.n, f=args.f, backend=backend, test_field=args.test_field)
    handle = SroHandle(config, sha256(str(args.seed).encode()).digest())
    sigs = handle.quorum_signatures(args.k)
    value = handle.reveal(RevealRequest(args.k, sigs))
    proof = handle.generate_proof(args.k)
    vk = handle.verification_key
    ok = verify(vk, args.k, proof, value)
    print(f"backend   {args.backend} (n={args.n}, f={args.f}, quorum={config.quorum})")
    print(f"value     {value.hex()}")
    if backend is Backend.SEEDED_HASH:
        print(f"proof     {proof.hex()}")
    else:
        print(f"group     q={vk.group.q} p={vk.group.p} g={vk.group.g}")
        commitments = dict(vk.commitments)
        for share in proof:
            commit = commitments[share.node_id]
            print(f"share     node={share.node_id} value={share.value:x} commit={commit:x}")
    print(f"verified  {ok}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairorder",
        description="Equal-opportunity ordered-consensus simulator and bound checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an experiment config file")
    p.add_argument("config")
    p.add_argument("--output", help="override the config's output path")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sro-demo", help="reveal, prove, and verify one oracle value")
    p.add_argument("--backend", choices=[b.value for b in Backend], default="seeded")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--test-field", type=int, help="small prime p > n for the threshold backend")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_sro_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError, TopologyError) as exc:
        print(f"error category=config: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error category=io: {exc}", file=sys.stderr)
        return 4
    except SroError as exc:
        print(f"error category=oracle: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # last-resort reporting; an empty message names the type
        print(f"error category=internal: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
