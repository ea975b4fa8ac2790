"""Command-line surface.

Batch-oriented: stdout carries data (plain integers, CSV, JSON, JSON
Lines), stderr carries warnings and timing, and exit codes are stable:
0 success, 1 verification failure, 2 usage error.

The verify, bijection and diagram modules, and inspect, are imported by
the handlers that run them, so the counting commands start without them.
"""

import argparse
import json
import os
import sys
from functools import lru_cache
from operator import itemgetter

from . import series as qs
from .copartitions import from_json_dict, to_json, to_json_dict
from .enumeration import (
    count_copartitions,
    count_refined,
    crank_tally,
    enumerate_copartitions,
)
from .errors import BadInputError, CopaError, NoClosedFormError

MAX_ORDER_ENV = "COPA_MAX_ORDER"


def _capped_order(order: int) -> int:
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return order
    try:
        cap = int(raw)
    except ValueError as exc:
        detail = f"{MAX_ORDER_ENV} must be an integer, got {raw!r}"
        raise BadInputError(f"bad input ({detail})") from exc
    if order > cap:
        print(f"warning: order {order} capped to {cap} by {MAX_ORDER_ENV}", file=sys.stderr)
        return cap
    return order


def _params(args) -> tuple[int, int, int]:
    return (args.a, args.b, args.m)


def _cmd_count(args) -> int:
    params = _params(args)
    if (args.w is None) != (args.s is None):
        print("--w and --s must be given together", file=sys.stderr)
        return 2
    cell = None if args.w is None else (args.w, args.s)

    def read(method: str) -> int:
        if cell is None:
            return count_copartitions(params, args.n, method)
        if method in ("auto", "series"):
            return qs.count_cell(params, args.n, *cell)
        return count_refined(params, args.n, method).table.get(cell, 0)

    value = read(args.method)
    if args.crosscheck:
        got = {args.method: value}
        for method in ("enum", "series", "formula") if cell is None else ("enum",):
            try:
                got[method] = read(method)
            except NoClosedFormError:
                pass
        if cell is None and args.n >= 0:
            got["double-sum"] = qs.gf_double_sum(params, args.n, False).coefficient_int(args.n)
        if len(set(got.values())) > 1:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(got.items()))
            print(f"crosscheck failed: {detail}", file=sys.stderr)
            return 1
    print(value)
    return 0


def _cmd_table(args) -> int:
    params = _params(args)
    if args.refined and args.format == "csv":
        print("--refined needs --format json", file=sys.stderr)
        return 2
    # the top order first, so each family's series is built once, not once
    # per chunk of the sweep
    count_copartitions(params, args.max_n)
    ns = range(args.max_n + 1)
    if args.format == "csv":
        print("a,b,m,n,count")
        for n in ns:
            print(f"{args.a},{args.b},{args.m},{n},{count_copartitions(params, n)}")
        return 0
    if args.refined and ns:
        # count_refined's table at every n, from one pass over the marked
        # double sum, whose key (s, w) is the block of w ground and s sky
        # parts: walked in (w, s) order, as the table lists them
        refined = qs.gf_double_sum(params, args.max_n).columns(key=itemgetter(1, 0))
    rows = []
    for n in ns:
        row: dict = {"n": n, "count": count_copartitions(params, n)}
        if args.refined:
            row["refined"] = [
                {"w": w, "s": s, "count": c} for (s, w), c in refined[n].items()
            ]
            refined[n] = None  # listed: drop it before the JSON text is made
        rows.append(row)
    print(json.dumps({"a": args.a, "b": args.b, "m": args.m, "rows": rows}))
    return 0


_BOUND_FLAGS = (
    ("max_n", ("max_n", "max_total", "max_half"), lambda v: v),
    ("order", ("order",), lambda v: _capped_order(v)),
    ("max_k", ("max_k",), lambda v: v),
    ("s", ("scales",), lambda v: (v,)),
)


def _suite_kwargs(fn, args, strict: bool):
    import inspect
    accepted = inspect.signature(fn).parameters
    kwargs = {}
    for flag, names, transform in _BOUND_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        name = next((nm for nm in names if nm in accepted), None)
        if name is not None:
            kwargs[name] = transform(value)
        elif strict:
            return None, flag
    return kwargs, None


def _cmd_verify(args) -> int:
    from .verify import SUITES
    if args.suite != "all" and args.suite not in SUITES:
        known = ", ".join(SUITES)
        print(f"unknown suite {args.suite!r} (known: {known}, all)", file=sys.stderr)
        return 2
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        fn = SUITES[name]
        kwargs, bad = _suite_kwargs(fn, args, strict=args.suite != "all")
        if bad is not None:
            print(f"suite {name!r} does not take --{bad.replace('_', '-')}", file=sys.stderr)
            return 2
        reports.append(fn(**kwargs))
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "suite": r.suite,
                        "ranges": r.ranges,
                        "attempted": r.attempted,
                        "passed": r.passed,
                        "ok": r.ok,
                        "counterexample": r.counterexample,
                        "wall_time": round(r.wall_time, 3),
                    }
                    for r in reports
                ]
            )
        )
    else:
        for r in reports:
            print(r.line())
            print(f"{r.suite}: {r.wall_time:.2f}s", file=sys.stderr)
    return 0 if all(r.ok for r in reports) else 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_fields(obj, fields: dict) -> None:
    # Each field is an int, a list of ints (list), or any value (object); a
    # copartition in the input is left to from_json_dict.
    if not isinstance(obj, dict):
        raise BadInputError("bad input (input must be a JSON object)")
    for key, kind in fields.items():
        if key not in obj:
            raise BadInputError(f"bad input ({key!r})")
        value = obj[key]
        if kind is int and not _is_int(value):
            raise BadInputError(f"bad input ({key} must be an integer)")
        elif kind is list and not (isinstance(value, list) and all(map(_is_int, value))):
            raise BadInputError(f"bad input ({key} must be a list of integers)")


def _read_json(raw: str, fields: dict) -> dict:
    """The JSON object given as raw (or on stdin for "-"), checked against fields."""
    text = sys.stdin.read() if raw == "-" else raw
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # as in copartitions.from_json: bad JSON, too many digits, too deep
        raise BadInputError(f"bad input ({exc})") from exc
    _check_fields(obj, fields)
    return obj


def _cmd_render(args) -> int:
    from .diagrams import render_diagram
    c = from_json_dict(_read_json(args.input, {}))
    out = render_diagram(c, args.format)
    if out and not out.endswith("\n"):
        out += "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise BadInputError(f"bad input (cannot write {args.out}: {exc.strerror})") from exc
    else:
        sys.stdout.write(out)
    return 0


def _cmd_enumerate(args) -> int:
    for c in enumerate_copartitions(_params(args), args.n):
        print(to_json(c))
    return 0


def _series_rows(s, refined: bool) -> list[dict]:
    if refined:
        return [
            {"n": n, "terms": [{"s": xd, "w": yd, "coeff": c} for (xd, yd), c in column.items()]}
            for n, column in enumerate(s.columns())
        ]
    return [{"n": n, "coeff": s.coefficient_int(n)} for n in range(s.order + 1)]


def _cmd_series(args) -> int:
    order = _capped_order(args.order)
    kind = args.kind
    if kind in ("product", "double-sum"):
        if args.a is None or args.b is None or args.m is None:
            print(f"--kind {kind} needs --a --b --m", file=sys.stderr)
            return 2
        build = qs.gf_product if kind == "product" else qs.gf_double_sum
        s = build((args.a, args.b, args.m), order, markers=args.refined)
        print(json.dumps(_series_rows(s, args.refined)))
        return 0
    if args.refined:
        print("--refined only applies to product and double-sum", file=sys.stderr)
        return 2
    if kind == "theta":
        if args.x is None or args.y is None:
            print("--kind theta needs --x --y", file=sys.stderr)
            return 2
        s = qs.theta_sum(args.x, args.y, order)
    elif kind == "rr-g":
        s = qs.rr_function("G", args.form, order)
    elif kind == "rr-h":
        s = qs.rr_function("H", args.form, order)
    elif kind == "nu":
        s = qs.mock_theta_nu(order)
    else:
        s = qs.eo_star_gf(order)
    print(json.dumps(_series_rows(s, False)))
    return 0


def _bij_pair_to_copartition(obj: dict) -> dict:
    from .bijections import pair_to_copartition
    merged, c = pair_to_copartition(
        obj["ground_source"], obj["sky_source"], (obj["a"], obj["b"], obj["m"])
    )
    inp = sum(obj["ground_source"]) + sum(obj["sky_source"])
    out = sum(merged) + c.size
    return {
        "merged": list(merged),
        "copartition": to_json_dict(c),
        "input_size": inp,
        "output_size": out,
        "size_ok": inp == out,
    }


def _bij_copartition_to_pair(obj: dict) -> dict:
    from .bijections import copartition_to_pair, inverse_match_table
    c = from_json_dict(obj["copartition"])
    merged = tuple(obj["merged"])
    table = inverse_match_table(merged, c)
    pi, lam = copartition_to_pair(merged, c)
    inp = sum(merged) + c.size
    out = sum(pi) + sum(lam)
    return {
        "ground_source": list(pi),
        "sky_source": list(lam),
        "match_table": [list(row) for row in table],
        "input_size": inp,
        "output_size": out,
        "size_ok": inp == out,
    }


def _bij_copartition_to_eo(obj: dict) -> dict:
    from .bijections import copartition_to_eo
    c = from_json_dict(obj)
    e = copartition_to_eo(c)
    return {
        "partition": list(e),
        "input_size": c.size,
        "output_size": sum(e),
        "size_ok": sum(e) == 2 * c.size,
    }


def _bij_eo_to_copartition(obj: dict) -> dict:
    from .bijections import eo_to_copartition
    c = eo_to_copartition(obj["partition"])
    total = sum(obj["partition"])
    return {
        "copartition": to_json_dict(c),
        "input_size": total,
        "output_size": c.size,
        "size_ok": total == 2 * c.size,
    }


def _bij_partition_to_cp111(obj: dict) -> dict:
    from .bijections import partition_to_cp111
    c = partition_to_cp111(obj["partition"], obj["ground_count"])
    total = sum(obj["partition"]) + obj["ground_count"]
    return {
        "copartition": to_json_dict(c),
        "input_size": total,
        "output_size": c.size,
        "size_ok": total == c.size,
    }


def _bij_cp111_to_partition(obj: dict) -> dict:
    from .bijections import cp111_to_partition
    c = from_json_dict(obj)
    lam, k = cp111_to_partition(c)
    return {
        "partition": list(lam),
        "ground_count": k,
        "input_size": c.size,
        "output_size": sum(lam) + k,
        "size_ok": c.size == sum(lam) + k,
    }


def _bij_rim_cell_to_cp001(obj: dict) -> dict:
    from .bijections import rim_cell_to_cp001
    c = rim_cell_to_cp001(obj["partition"], tuple(obj["cell"]))
    total = sum(obj["partition"])
    return {
        "copartition": to_json_dict(c),
        "input_size": total,
        "output_size": c.size,
        "size_ok": total == c.size,
    }


def _bij_cp001_to_rim_cell(obj: dict) -> dict:
    from .bijections import cp001_to_rim_cell
    c = from_json_dict(obj)
    lam, cell = cp001_to_rim_cell(c)
    return {
        "partition": list(lam),
        "cell": list(cell),
        "input_size": c.size,
        "output_size": sum(lam),
        "size_ok": c.size == sum(lam),
    }


# name: (map, fields of its JSON input)
_BIJECTIONS = {
    "pair-to-copartition": (
        _bij_pair_to_copartition,
        {"ground_source": list, "sky_source": list, "a": int, "b": int, "m": int},
    ),
    "copartition-to-pair": (
        _bij_copartition_to_pair,
        {"copartition": object, "merged": list},
    ),
    "copartition-to-eo": (_bij_copartition_to_eo, {}),
    "eo-to-copartition": (_bij_eo_to_copartition, {"partition": list}),
    "partition-to-cp111": (_bij_partition_to_cp111, {"partition": list, "ground_count": int}),
    "cp111-to-partition": (_bij_cp111_to_partition, {}),
    "rim-cell-to-cp001": (_bij_rim_cell_to_cp001, {"partition": list, "cell": list}),
    "cp001-to-rim-cell": (_bij_cp001_to_rim_cell, {}),
}


def _cmd_bijection(args) -> int:
    bijection, fields = _BIJECTIONS[args.name]
    obj = _read_json(args.input, fields)
    if args.illustrate:
        if args.name != "pair-to-copartition":
            print("--illustrate only applies to pair-to-copartition", file=sys.stderr)
            return 2
        from .bijections import render_pair_merge
        sys.stdout.write(
            render_pair_merge(
                obj["ground_source"], obj["sky_source"], (obj["a"], obj["b"], obj["m"])
            )
        )
        return 0
    print(json.dumps(bijection(obj)))
    return 0


def _cmd_crank(args) -> int:
    tally = crank_tally(_params(args), args.n, args.mod)
    print(
        json.dumps(
            {
                "modulus": tally.modulus,
                "total": tally.total,
                "counts": {str(r): tally.counts[r] for r in range(tally.modulus)},
            }
        )
    )
    return 0


def _add_params(sp, with_n: bool = True) -> None:
    sp.add_argument("--a", type=int, required=True, help="ground congruence class")
    sp.add_argument("--b", type=int, required=True, help="sky congruence class")
    sp.add_argument("--m", type=int, required=True, help="modulus")
    if with_n:
        sp.add_argument("--n", type=int, required=True, help="size")


# Built once per process: parse_args leaves the parser as it was, and it
# writes usage errors to the sys.stderr of the moment.
@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copa",
        description="Copartition counting, enumeration, diagrams, bijections, and identity suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("count", help="count copartitions of a given size")
    _add_params(sp)
    sp.add_argument("--w", type=int, help="restrict to this many ground parts")
    sp.add_argument("--s", type=int, help="restrict to this many sky parts")
    sp.add_argument(
        "--method", choices=("auto", "enum", "series", "formula"), default="auto"
    )
    sp.add_argument(
        "--crosscheck",
        action="store_true",
        help="recompute by every available method and compare",
    )
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("table", help="counts for n = 0..max-n")
    _add_params(sp, with_n=False)
    sp.add_argument("--max-n", type=int, required=True, dest="max_n")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--refined", action="store_true", help="include (w,s) tables")
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", help="suite name, or 'all'")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--max-n", type=int, dest="max_n")
    sp.add_argument("--order", type=int)
    sp.add_argument("--max-k", type=int, dest="max_k")
    sp.add_argument("--s", type=int, help="single scale factor (scaling suite)")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("render", help="draw one copartition")
    sp.add_argument("--input", required=True, help="copartition JSON, or - for stdin")
    sp.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    sp.add_argument("--out", help="write to this path instead of stdout")
    sp.set_defaults(func=_cmd_render)

    sp = sub.add_parser("enumerate", help="list copartitions of a size, JSON Lines")
    _add_params(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("series", help="print series coefficients as JSON")
    sp.add_argument(
        "--kind",
        choices=("product", "double-sum", "rr-g", "rr-h", "theta", "nu", "eo-star"),
        required=True,
    )
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--x", type=int, help="first theta exponent")
    sp.add_argument("--y", type=int, help="second theta exponent")
    sp.add_argument("--form", choices=("sum", "product"), default="sum")
    sp.add_argument("--refined", action="store_true", help="bivariate coefficients")
    sp.set_defaults(func=_cmd_series)

    sp = sub.add_parser("bijection", help="apply a named map to a JSON input")
    sp.add_argument("name", choices=sorted(_BIJECTIONS))
    sp.add_argument("--input", required=True, help="JSON object, or - for stdin")
    sp.add_argument(
        "--illustrate",
        action="store_true",
        help="print the four-panel picture instead of JSON (pair merge only)",
    )
    sp.set_defaults(func=_cmd_bijection)

    sp = sub.add_parser("crank", help="tally crank residues")
    _add_params(sp)
    sp.add_argument("--mod", type=int, required=True)
    sp.set_defaults(func=_cmd_crank)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except CopaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
