"""Command-line entry point: ``procforge <stage> --config PATH``.

Exit codes: 0 on success, 1 on a validation failure (bad config or
artifact), 2 on a runtime error.  With ``--debug`` an unexpected error
(one that is not a ``ProcforgeError``) propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ProcforgeError, ValidationError
from .pipeline import STAGES, load_config, run_all, run_stage
from .sampling import SOURCES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procforge",
        description="Pipeline stages: structured inventory -> templates -> samples -> "
        "world models -> rules -> constraint-guided repair.",
    )
    parser.add_argument("stage", choices=[*STAGES, "all"], help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="pipeline config file (TOML or JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--strict", action="store_true", help="fail instead of skipping bad records")
    parser.add_argument(
        "--source",
        choices=SOURCES,
        default=None,
        help="sample stage: override the batch source from the config",
    )
    parser.add_argument("--n", type=int, default=None, help="sample stage: override the batch size")
    parser.add_argument("--debug", action="store_true", help="re-raise unexpected errors with their traceback")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {"seed": args.seed, "n": args.n, "source": args.source, "strict": args.strict}
        cfg = load_config(args.config, overrides)
        if args.stage == "all":
            written = [p for paths in run_all(cfg).values() for p in paths]
        else:
            written = run_stage(args.stage, cfg)
        for path in written:
            print(path)
        return 0
    except ValidationError as exc:
        print(f"procforge: validation error: {exc}", file=sys.stderr)
        return 1
    except ProcforgeError as exc:
        print(f"procforge: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures unrelated to input validation
        if args.debug:
            raise
        print(f"procforge: unexpected error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
