"""Command-line front end.

Subcommands map one-to-one onto the harness experiments:

    oamtomo rank-analysis  --spec spec.json --out results/
    oamtomo error-sweep    --spec spec.json --out results/ --threads 4
    oamtomo entropy-sweep  --spec spec.json
    oamtomo reconstruct    --spec spec.json
    oamtomo simulate       --spec spec.json
    oamtomo validate       --set scan_file=scan.csv

Exit codes: 0 success, 2 spec error (an unreadable --spec or a run memory cannot
hold), 3 data error (an unusable data file or --out), 4 non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    KINDS,
    NonConvergenceError,
    SpecValidationError,
    _message,
    parse_spec,
    run_experiment,
)
from .qstate import StateValidationError, _load_json
from .sensor import ScanFormatError

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_DATA = 3
EXIT_NONCONVERGED = 4

_SUBCOMMANDS = {kind.replace("_", "-"): kind for kind in KINDS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamtomo",
        description="Compressive tomography of OAM photon states from intensity scans.",
    )
    parser.add_argument("command", choices=_SUBCOMMANDS, help="the experiment to run")
    parser.add_argument("--spec", help="JSON experiment spec file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--threads", type=int, default=1, help="worker processes for sweeps")
    parser.add_argument("--strict", action="store_true", help="exit 4 if error-sweep or reconstruct does not converge")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a spec field (dotted path, JSON value)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obj = {}
        if args.spec:
            try:
                with open(args.spec, encoding="utf-8") as fh:
                    obj = _load_json(fh.read())
            except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON, too deep
                raise SpecValidationError([f"spec file is not valid JSON: {_message(exc)}"]) from exc
        seed = [] if args.seed is None else [f"seed={args.seed}"]
        spec = parse_spec(obj, kind=_SUBCOMMANDS[args.command], overrides=args.overrides + seed)
        spec.threads = max(1, args.threads)
        spec.strict = bool(args.strict)
        print(run_experiment(spec, out_dir=args.out))
        return EXIT_OK
    except SpecValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_SPEC
    except (ScanFormatError, StateValidationError, OSError) as exc:  # bad data, or an unusable file or --out
        print(_message(exc), file=sys.stderr)
        return EXIT_DATA
    except NonConvergenceError as exc:
        print(exc, file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
