"""Command-line interface: estimate | control | pvalues | simulate | verify-ct | exact-test.

Conventions shared by every subcommand:

* exit codes -- 0 on success, 2 on malformed input or bad configuration,
  3 when a request is valid but computationally infeasible;
* results print as an aligned two-column table (or CSV with ``--csv``; a
  drawn seed and the ``wrote`` note then go to stderr),
  and ``--out`` additionally writes a JSON document embedding the package
  version, the seed in effect, and a hash of the effective configuration;
* every source of randomness funnels through ``--seed``; commands that
  need randomness without one draw a seed and print it, so any run can be
  replayed.

Statistic inputs are CSV.  A file whose header is ``index,statistic`` or
``index,statistic,margin`` is taken as precomputed statistics; any other
header is parsed as a raw data matrix (optional ``group`` column with two
labels), from which statistics are computed per ``--statistic``.  That flag
is for raw data only: passing it with a statistics file exits 2.  Margins
come from ``--delta`` or from the statistics file's margin column; having
neither is an error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import sign_flip_test, two_group_permutation_test
from .control import (
    NullDensitySpec,
    control_mfdp,
    directional_pvalues,
    equivalence_pvalues,
)
from .core import HypothesisShape, InfeasibleError, StatisticVector
from .ct_oracle import COUNT_FAMILIES, verify_random_instances
from .estimators import (
    CoinSource,
    estimate_directional,
    estimate_directional_randomized,
    estimate_equivalence,
    estimate_equivalence_windowed,
)
from .simulate import StudySpec, run_study
from .stats import (
    _is_statistics_file,
    _write_indexed,
    column_mean_statistics,
    read_data_csv,
    read_statistics_csv,
    two_group_statistics,
    welch_t_statistics,
    write_pvalues_csv,
)


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _print_table(pairs: list[tuple[str, str]], csv_mode: bool) -> None:
    if csv_mode:
        csv.writer(sys.stdout, lineterminator="\n").writerows([("field", "value"), *pairs])
        return
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        print(f"{key:<{width}}  {value}")


def _format_indices(indices) -> str:
    seq = [str(int(i)) for i in indices]
    return " ".join(seq) if seq else "(none)"


def _result_fields(obj, *names: str) -> dict:
    """The named attributes of a result, in order; index arrays become lists of int."""
    values = {name: getattr(obj, name) for name in names}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def _write_json(path, command: str, seed, config: dict, body: dict) -> None:
    """A JSON document: version, command, seed and config hash, then ``body``."""
    head = {"version": __version__, "command": command, "seed": seed}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**head, "config_hash": _config_hash(config), **body}, fh, indent=2)
        fh.write("\n")


def _write_out(args, seed, result: dict, *config_keys: str) -> None:
    """The ``--out`` document; its config is the named arguments, in order."""
    config = {key: getattr(args, key) for key in config_keys}
    _write_json(args.out, args.command, seed, config, {"config": config, "result": result})


def _report(args, seed, pairs: list[tuple[str, str]], result: dict, *config_keys: str) -> int:
    """Print the result table and, with ``--out``, write the JSON document."""
    _print_table(pairs, args.csv)
    if args.out:
        _write_out(args, seed, result, *config_keys)
    return 0


def _ensure_seed(args) -> int:
    """The seed in effect; drawn and printed (to stderr under ``--csv``) when none was given."""
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed {args.seed}: seed must be >= 0")
    if args.seed is None:
        args.seed = secrets.randbits(32)
        stream = sys.stderr if getattr(args, "csv", False) else sys.stdout
        print(f"seed: {args.seed}", file=stream)
    return args.seed


def _load_statistics(args) -> tuple[StatisticVector, tuple[str, ...] | None]:
    """Build the statistic vector from either kind of input file.

    Returns the vector plus feature names (data inputs only; None for
    statistics files).
    """
    shape = HypothesisShape(args.shape)
    path = args.input
    if _is_statistics_file(path):
        if args.statistic != "auto":
            raise ValueError(
                f"{path}: --statistic applies to raw data only, not to a statistics file"
            )
        statistics, file_margins = read_statistics_csv(path)
        if args.delta is not None:
            margins = args.delta
        elif file_margins is not None:
            margins = file_margins
        else:
            raise ValueError(
                f"{path}: no margin available; pass --delta or include a margin column"
            )
        return StatisticVector(statistics, margins, shape), None

    dm = read_data_csv(path)
    if args.delta is None:
        raise ValueError("raw data input needs an explicit margin: pass --delta")
    statistic = args.statistic
    if statistic == "auto":
        statistic = "welch" if dm.group is not None else "column-mean"
    if statistic == "column-mean":
        if dm.group is not None:
            raise ValueError("column-mean statistics take ungrouped data (drop the group column)")
        sv = column_mean_statistics(dm, args.delta, shape)
        return sv, dm.feature_names
    if statistic == "two-group":
        sv = two_group_statistics(dm, args.delta, shape)
        return sv, dm.feature_names
    if statistic == "welch":
        sv, kept, _dof = welch_t_statistics(dm, args.delta, shape)
        names = tuple(dm.feature_names[int(j)] for j in kept)
        return sv, names
    raise ValueError(f"unknown statistic {statistic!r}")


def _add_statistics_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="CSV of statistics (index,statistic[,margin]) or raw data")
    parser.add_argument(
        "--shape",
        choices=[s.value for s in HypothesisShape],
        default="directional",
        help="hypothesis shape (default: directional)",
    )
    parser.add_argument("--delta", type=float, default=None, help="common margin for all hypotheses")
    parser.add_argument(
        "--statistic",
        choices=["auto", "column-mean", "two-group", "welch"],
        default="auto",
        help="statistic for raw data input (default: welch when a group column is present)",
    )


def _cmd_estimate(args) -> int:
    directional = HypothesisShape(args.shape) is HypothesisShape.DIRECTIONAL
    if args.windowed and directional:
        raise ValueError("--windowed applies to the equivalence estimator only")
    if args.randomized and not directional:
        raise ValueError("--randomized applies to the directional estimator only")
    if args.seed is not None and not args.randomized:
        raise ValueError("--seed applies to --randomized only")
    sv, names = _load_statistics(args)
    seed = None
    if args.randomized:
        seed = _ensure_seed(args)
        est = estimate_directional_randomized(sv, args.t, CoinSource(seed))
    elif directional:
        est = estimate_directional(sv, args.t)
    elif args.windowed:
        est = estimate_equivalence_windowed(sv, args.t)
    else:
        est = estimate_equivalence(sv, args.t)
    result = _result_fields(
        est, "estimator", "t", "r", "v_tilde", "fdp_hat", "rejected", "randomized", "coin", "floored"
    )
    result["requires_independence"] = est.requires_independence
    if names is not None:
        result["rejected_features"] = [names[i] for i in result["rejected"]]
    pairs = [
        ("estimator", est.estimator),
        ("t", f"{est.t:g}"),
        ("r", str(est.r)),
        ("v_tilde", "floored" if est.v_tilde is None else str(est.v_tilde)),
        ("fdp_hat", f"{est.fdp_hat:.6g}"),
        ("rejected", _format_indices(est.rejected)),
    ]
    if est.randomized:
        pairs.append(("coin", str(est.coin)))
    return _report(
        args, seed, pairs, result, "input", "shape", "delta", "t", "statistic", "randomized", "windowed"
    )


def _cmd_control(args) -> int:
    sv, names = _load_statistics(args)
    ctl = control_mfdp(sv, args.gamma)
    result = _result_fields(ctl, "gamma", "s", "s_plus", "r", "v_tilde", "fdp_hat", "rejected")
    if names is not None:
        result["rejected_features"] = [names[i] for i in result["rejected"]]
    pairs = [
        ("gamma", f"{ctl.gamma:g}"),
        ("s", "never-exceeded" if ctl.s is None else f"{ctl.s:.10g}"),
        ("s_plus", f"{ctl.s_plus:.10g}"),
        ("r", str(ctl.r)),
        ("v_tilde", str(ctl.v_tilde)),
        ("fdp_hat", f"{ctl.fdp_hat:.6g}"),
        ("rejected", _format_indices(ctl.rejected)),
    ]
    return _report(args, None, pairs, result, "input", "shape", "delta", "gamma", "statistic")


def _parse_null(text: str) -> NullDensitySpec:
    if text == "std-normal":
        return NullDensitySpec.standard_normal()
    name, colon, param = text.partition(":")
    family = {"scaled-normal": NullDensitySpec.scaled_normal, "student-t": NullDensitySpec.student_t}
    if not colon or name not in family:
        raise ValueError(
            f"unknown null density {text!r}; use std-normal, scaled-normal:SIGMA, or student-t:NU"
        )
    try:
        value = float(param)
    except ValueError:
        raise ValueError(f"--null {text!r}: could not parse {param!r} as a number") from None
    return family[name](value)


def _cmd_pvalues(args) -> int:
    if args.out and args.csv:
        raise ValueError("--csv applies to printed p-values only; --out always writes CSV")
    sv, _names = _load_statistics(args)
    null = _parse_null(args.null)
    if sv.shape is HypothesisShape.DIRECTIONAL:
        pv = directional_pvalues(sv, null)
    else:
        pv = equivalence_pvalues(sv, null)
    if args.out:
        write_pvalues_csv(pv, args.out)
        print(f"wrote {pv.values.size} p-values to {args.out}")
    elif args.csv:
        _write_indexed(sys.stdout, {"pvalue": pv.values}, "\n")
    else:
        rows = [(str(j), f"{p:.10g}") for j, p in enumerate(pv.values)]
        _print_table([("index", "pvalue"), *rows], False)
    return 0


def _cmd_simulate(args) -> int:
    study = StudySpec.from_json(args.spec)
    if args.seed is not None:
        try:
            study = StudySpec.from_dict({**study.to_dict(), "seed": args.seed})
        except ValueError as exc:
            raise ValueError(f"--seed {args.seed}: {exc}") from None
    table = run_study(study, out_dir=args.out_dir)
    if args.csv:
        table._write_rows(sys.stdout)
    else:
        header = f"{'cell':>4}  {'pi0':>5}  {'rho':>5}  {'d':>5}  {'method':<22}  {'metric':<18}  {'value':>12}  {'se':>10}"
        print(header)
        for r in table.rows:
            print(
                f"{r.cell_id:>4}  {r.pi0:>5g}  {r.rho:>5g}  {r.d:>5g}  {r.method:<22}  "
                f"{r.metric:<18}  {r.value:>12.6g}  {r.se:>10.3g}"
            )
    if args.out_dir:
        out = Path(args.out_dir)
        table.write_csv(out / "metrics.csv")
        _write_json(
            out / "summary.json", args.command, study.seed, study.to_dict(), table.summary_dict()
        )
        note = sys.stderr if args.csv else sys.stdout
        print(f"wrote {out / 'metrics.csv'} and {out / 'summary.json'}", file=note)
    return 0


def _cmd_verify_ct(args) -> int:
    seed = _ensure_seed(args)
    kinds = COUNT_FAMILIES if args.family == "all" else (args.family,)
    reports = []
    total = 0
    for offset, kind in enumerate(kinds):
        report = verify_random_instances(kind, args.instances, args.m, seed + offset)
        reports.append(report)
        total += report["mismatches"]
        print(
            f"{kind}: {report['instances']} instances, "
            f"{report['subsets_checked']} subsets checked, {report['mismatches']} mismatches"
        )
    if args.out:
        result = {"reports": reports, "total_mismatches": total}
        _write_out(args, seed, result, "family", "m", "instances")
    return 0


def _cmd_exact_test(args) -> int:
    if _is_statistics_file(args.input):
        raise ValueError(f"{args.input}: exact-test takes raw data, not a statistics file")
    dm = read_data_csv(args.input)
    if args.feature is not None:
        if args.feature not in dm.feature_names:
            raise ValueError(f"feature {args.feature!r} not found in {args.input}")
        col = dm.feature_names.index(args.feature)
    else:
        col = 0
    values = dm.values[:, col]
    if args.test == "sign-flip":
        if dm.group is not None:
            raise ValueError("sign-flip test takes ungrouped data (drop the group column)")
        res = sign_flip_test(values, args.alpha)
    else:
        if dm.group is None:
            raise ValueError("permutation test needs a group column with two labels")
        rows_z, rows_y = dm.group_rows()
        res = two_group_permutation_test(values[rows_z], values[rows_y], args.alpha)
    pairs = [
        ("test", args.test),
        ("feature", dm.feature_names[col]),
        ("reject", str(res.reject).lower()),
        ("t_observed", f"{res.t_observed:.10g}"),
        ("critical_value", f"{res.critical_value:.10g}"),
        ("alpha", f"{res.alpha:g}"),
        ("n_transforms", str(res.n_transforms)),
        ("order_index", str(res.order_index)),
    ]
    return _report(args, None, pairs, dataclasses.asdict(res), "input", "test", "alpha", "feature")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Median-level FDP estimation and median-FDP control for "
        "directional and equivalence multiple testing.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate the FDP at a fixed threshold t")
    _add_statistics_args(p)
    p.add_argument("--t", type=float, default=0.0, help="rejection threshold (default: 0)")
    p.add_argument("--randomized", action="store_true", help="use the coin-flip variant (directional)")
    p.add_argument("--windowed", action="store_true", help="use the windowed variant (equivalence)")
    p.add_argument("--seed", type=int, default=None, help="seed for the randomized coin")
    p.add_argument("--out", default=None, help="write a JSON result document here")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of an aligned table")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("control", help="largest rejection set with median FDP <= gamma")
    _add_statistics_args(p)
    p.add_argument("--gamma", type=float, required=True, help="FDP level in [0, 1)")
    p.add_argument("--out", default=None, help="write a JSON result document here")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of an aligned table")
    p.set_defaults(fn=_cmd_control)

    p = sub.add_parser("pvalues", help="median-level p-values for downstream procedures")
    _add_statistics_args(p)
    p.add_argument(
        "--null",
        default="std-normal",
        help="null density: std-normal, scaled-normal:SIGMA, or student-t:NU",
    )
    p.add_argument("--out", default=None, help="write the p-values as CSV here")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of an aligned table")
    p.set_defaults(fn=_cmd_pvalues)

    p = sub.add_parser("simulate", help="run a Monte Carlo study from a JSON spec")
    p.add_argument("--spec", required=True, help="study spec JSON file")
    p.add_argument("--out-dir", default=None, help="directory for metrics.csv and summary.json")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of an aligned table")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("verify-ct", help="brute-force closed testing vs. the closed forms")
    p.add_argument("--family", choices=[*COUNT_FAMILIES, "all"], default="all")
    p.add_argument("--m", type=int, default=8, help="maximum hypotheses per instance (<= 12)")
    p.add_argument("--instances", type=int, default=500, help="random instances per family")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write a JSON report here")
    p.set_defaults(fn=_cmd_verify_ct)

    p = sub.add_parser("exact-test", help="exact sign-flip or permutation test, full enumeration")
    p.add_argument("input", help="data CSV; permutation tests need a group column")
    p.add_argument("--test", choices=["sign-flip", "permutation"], required=True)
    p.add_argument("--alpha", type=float, required=True, help="test level in (0, 1)")
    p.add_argument("--feature", default=None, help="feature column to test (default: first)")
    p.add_argument("--out", default=None, help="write a JSON result document here")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of an aligned table")
    p.set_defaults(fn=_cmd_exact_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
