"""Command-line interface.

Subcommands:
  simulate CONFIG          run a config-file experiment, write its CSV
  bounds                   closed-form equality/linearizability table
  attack sandwich          bracketing-attack frequencies and profits
  sro-demo                 reveal/prove/verify one oracle value

Exit codes: 0 success, 2 usage, 3 config/contract, 4 I/O, 5 oracle
protocol failure, 1 anything else.  Errors print one machine-readable
line: ``error category=<cat>: <message>``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .consensus import POLICY_NAMES
from .domain import ContractError, sha256
from .harness import (
    ConfigError,
    ExperimentConfig,
    TableResult,
    emit_csv,
    parse_config,
    run_experiment,
)
from .netmodel import TopologyError
from .sro import Backend, RevealRequest, SroConfig, SroError, SroHandle, verify


def _emit(result: TableResult, output: str | None):
    if output:
        emit_csv(result, output)
        print(f"wrote {output}")
    else:
        sys.stdout.write(result.to_csv_text())


def _cmd_simulate(args) -> int:
    config = parse_config(args.config)
    result = run_experiment(config)
    _emit(result, args.output or config.output or None)
    return 0


def _alpha_grid(args) -> tuple:
    if args.curve:
        return tuple(str(Fraction(i, 20)) for i in range(1, 20))
    if args.dnoise_ms is not None:
        if args.dnoise_ms < 1:
            raise ContractError(f"--dnoise-ms must be >= 1, got {args.dnoise_ms}")
        return (str(Fraction(args.dnet_ms, args.dnoise_ms)),)
    if args.alpha is None:
        raise ContractError("pass --alpha, --dnoise-ms or --curve")
    return (args.alpha,)


def _cmd_bounds(args) -> int:
    config = ExperimentConfig(
        scenario="bounds_table",
        delta_net_ms=args.dnet_ms,
        bounds_n=(args.n,),
        alphas=_alpha_grid(args),
    )
    _emit(run_experiment(config), args.output)
    return 0


def _cmd_attack(args) -> int:
    # --dnoise scales bercow's noise width; the leader rotates once per slot
    spec = args.policy
    if args.policy == "bercow":
        spec += f":{args.dnet_ms * args.dnoise}"
    elif args.policy == "leader":
        spec += f":{args.slot_ms}"
    config = ExperimentConfig(
        scenario="sandwich",
        topology=args.topology,
        policies=(spec,),
        delta_net_ms=args.dnet_ms,
        slot_ms=args.slot_ms,
        trials=args.trials,
        seed=args.seed,
        origins=tuple(args.origins.split(",")),
        colluders=args.colluders,
    )
    _emit(run_experiment(config), args.output)
    return 0


def _cmd_sro_demo(args) -> int:
    backend = Backend.SEEDED_HASH if args.backend == "seeded" else Backend.THRESHOLD_DPRF
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

    p = sub.add_parser("bounds", help="closed-form bound table")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--dnet-ms", type=int, default=300)
    alpha = p.add_mutually_exclusive_group()
    alpha.add_argument("--alpha", help="exact ratio, e.g. 1/5 or 0.2")
    alpha.add_argument("--dnoise-ms", type=int, help="sets alpha = dnet / dnoise")
    alpha.add_argument("--curve", action="store_true", help="sweep alpha over (0, 1)")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("attack", help="attack scenarios")
    attack_sub = p.add_subparsers(dest="attack_kind", required=True)
    ps = attack_sub.add_parser("sandwich", help="bracketing attack on an AMM pool")
    ps.add_argument("--policy", required=True, choices=POLICY_NAMES)
    ps.add_argument("--dnoise", type=int, default=5, help="noise width as a multiple of dnet")
    ps.add_argument("--trials", type=int, default=10_000)
    ps.add_argument("--dnet-ms", type=int, default=300)
    ps.add_argument("--slot-ms", type=int, default=1500)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--topology", default="bundled")
    ps.add_argument("--origins", default="munich,london", help="victim_city,attacker_city")
    ps.add_argument("--colluders", default="max", help="colluding node count or 'max'")
    ps.add_argument("--output")
    ps.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("sro-demo", help="reveal, prove, and verify one oracle value")
    p.add_argument("--backend", choices=("seeded", "threshold"), default="seeded")
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
