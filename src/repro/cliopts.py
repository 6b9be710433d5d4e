"""Shared argparse flag groups and their RunConfig translations.

Every subcommand used to re-declare its own copy of ``--scale``,
``--jobs``, the ``--check`` group, the fault flags and the ``--obs``
pair as nested closures inside :func:`repro.cli.build_parser`; the
``fleet`` and ``faults`` parsers had already drifted apart (different
``--seed`` defaults, ``faults`` without ``--jobs``).  This module is
the single source of those flag sets, so a new subcommand (``serve``)
reuses ``--check/--obs/--jobs/--seed`` instead of re-declaring them —
and so the *translation* from parsed args to config objects
(:func:`check_kwargs`, :func:`fault_config_or_none`,
:class:`ObsSetup`) lives next to the flags it interprets.

Nothing here imports the heavy simulation stack at module load; the
helpers lazily import what they build.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults.model import FaultConfig
    from .obs.export import JsonlWriter
    from .obs.sampler import TimeSeriesSampler

__all__ = [
    "add_scale",
    "add_jobs",
    "add_seed",
    "add_check_flags",
    "add_fault_flags",
    "add_obs_flags",
    "check_kwargs",
    "fault_config",
    "fault_config_or_none",
    "ObsSetup",
    "build_obs",
]


# -- flag groups -------------------------------------------------------


def add_scale(parser: argparse.ArgumentParser) -> None:
    from .experiments.config import DEFAULT_SCALE

    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE,
        help=f"workload scale (default {DEFAULT_SCALE})",
    )


def add_jobs(
    parser: argparse.ArgumentParser,
    help: Optional[str] = None,
) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=help or (
            "worker processes for independent cells "
            "(default 1 = serial, 0 = all cores)"
        ),
    )


def add_seed(
    parser: argparse.ArgumentParser,
    default: Optional[int] = 0,
    help: Optional[str] = None,
) -> None:
    parser.add_argument(
        "--seed", type=int, default=default,
        help=help or f"seed (default {default})",
    )


def add_check_flags(parser: argparse.ArgumentParser) -> None:
    """``--check/--check-interval/--trim-every`` — the lockstep
    correctness-harness group (see DESIGN.md §8)."""
    parser.add_argument(
        "--check", action="store_true",
        help="run the correctness harness in lockstep: full invariant "
             "audits plus the dict-based oracle FTL cross-checking "
             "every read, revival and trim (see DESIGN.md)",
    )
    parser.add_argument(
        "--check-interval", type=int, default=None, metavar="N",
        help="events between full invariant audits (implies --check; "
             "default 1000)",
    )
    parser.add_argument(
        "--trim-every", type=int, default=0, metavar="N",
        help="inject a TRIM after every Nth write (0 = none); "
             "changes the trace, so results differ from the "
             "untrimmed run by construction",
    )


def add_fault_flags(parser: argparse.ArgumentParser) -> None:
    """The seeded fault-injection group (``--seed`` rides along: it is
    the fault-stream seed on ``run``/``faults``)."""
    add_seed(parser, default=0, help="fault-stream seed (default 0)")
    parser.add_argument("--program-failure-prob", type=float, default=0.0,
                        metavar="P", help="per-program failure probability")
    parser.add_argument("--erase-failure-prob", type=float, default=0.0,
                        metavar="P", help="per-erase failure probability")
    parser.add_argument("--read-error-prob", type=float, default=0.0,
                        metavar="P", help="per-read ECC-retry probability")
    parser.add_argument("--crash-after", type=int, default=None, metavar="N",
                        help="power loss after N serviced host requests")


def add_obs_flags(
    parser: argparse.ArgumentParser,
    intervals: bool = True,
    help: Optional[str] = None,
) -> None:
    """``--obs PATH`` (+ optional sampling-cadence pair)."""
    parser.add_argument(
        "--obs", metavar="PATH", default=None,
        help=help or (
            "write a JSONL time series of internal state to PATH "
            "(see DESIGN.md, 'Observability')"
        ),
    )
    if intervals:
        parser.add_argument(
            "--obs-interval", type=int, default=1000, metavar="N",
            help="sample every N completed host requests (default 1000)",
        )
        parser.add_argument(
            "--obs-interval-us", type=float, default=None, metavar="M",
            help="also sample every M simulated microseconds",
        )


# -- args → config objects ---------------------------------------------


def check_kwargs(args: argparse.Namespace) -> dict:
    """RunConfig kwargs from the shared ``--check`` flag group.

    ``--check`` (or an explicit ``--check-interval``) turns on both the
    invariant audits and the lockstep oracle; ``--trim-every`` passes
    through unconditionally since it is a trace transform, not a check.
    """
    kwargs: dict = {"trim_every": args.trim_every}
    if args.check or args.check_interval is not None:
        kwargs["oracle"] = True
        kwargs["check_interval"] = args.check_interval
    return kwargs


def fault_config(args: argparse.Namespace) -> "FaultConfig":
    """A FaultConfig from the shared fault flag group (always built)."""
    from .faults import FaultConfig

    return FaultConfig(
        seed=args.seed,
        program_failure_prob=args.program_failure_prob,
        erase_failure_prob=args.erase_failure_prob,
        read_error_prob=args.read_error_prob,
        crash_after_requests=args.crash_after,
    )


def fault_config_or_none(args: argparse.Namespace) -> Optional["FaultConfig"]:
    """A FaultConfig when any fault flag was actually used, else None.

    ``run`` must stay digest-identical to older builds when no fault
    flag is given, so (unlike ``faults``, which always attaches the
    fault model) an all-default flag set yields the perfect device.
    """
    if (
        args.program_failure_prob == 0.0
        and args.erase_failure_prob == 0.0
        and args.read_error_prob == 0.0
        and args.crash_after is None
    ):
        return None
    return fault_config(args)


@dataclass
class ObsSetup:
    """The live sampler/writer pair the ``--obs`` group builds.

    ``close()`` is safe to call unconditionally (and more than once);
    callers wrap the run in ``try/finally`` around it.
    """

    observer: Optional["TimeSeriesSampler"] = None
    writer: Optional["JsonlWriter"] = None

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None


def build_obs(args: argparse.Namespace) -> Optional[ObsSetup]:
    """Build the sampler/writer for the ``--obs`` flags.

    Returns an empty :class:`ObsSetup` when ``--obs`` was not given and
    ``None`` on a flag error (after printing it — the caller exits 2).
    The sampling cadence is validated *before* the output file opens,
    so a bad flag value never leaves an empty JSONL behind.
    """
    if not args.obs:
        return ObsSetup()
    from .obs import JsonlWriter, TimeSeriesSampler

    try:
        observer = TimeSeriesSampler(
            interval_requests=args.obs_interval,
            interval_us=args.obs_interval_us,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    try:
        writer = JsonlWriter(args.obs)
    except OSError as exc:
        print(f"error: cannot open --obs file: {exc}", file=sys.stderr)
        return None
    observer.sink = writer
    return ObsSetup(observer=observer, writer=writer)
