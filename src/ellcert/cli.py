"""Command line harness: list checks, run one check, or run a config suite.

Config files are INI: one section per check, section name = check name (an
optional ":label" suffix distinguishes repeats), keys are the check's
parameters.  Reports are JSON arrays of record objects; exit codes are
0 = all pass, 1 = any failure, 2 = any inconclusive, 3 = any error record (a
check that raised), a usage error, an unreadable config or an unwritable
report.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from importlib import resources

from .checks import (REGISTRY, CheckSpec, ReportRecord, error_record, parse_value, run_check,
                     suite_exit_code)
from .errors import EllcertError


def load_config(path: str) -> list[CheckSpec]:
    cp = configparser.ConfigParser()
    if path == "default":
        content = resources.files("ellcert").joinpath("suites/default.cfg").read_text()
        cp.read_string(content)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    specs = []
    for section in cp.sections():
        name = section.split(":")[0].strip()
        params = {k: parse_value(v) for k, v in cp.items(section)}
        specs.append(CheckSpec(name=name, params=params))
    return specs


def _print_record(r: ReportRecord):
    if r.errored:
        state, detail = "ERROR", "(message on stderr)"
    elif r.inconclusive:
        state, detail = "INCONCLUSIVE", f"gap={r.params.get('gap', '?')}"
    else:
        state = "PASS" if r.passed else "FAIL"
        detail = f"residual={r.residual_max:.3e} tol={r.tolerance:.1e}"
    print(f"{r.name:26s} {state:12s} {detail}  seed={r.seed}  {r.wall_time_ms} ms")


def _run_and_report(specs, out) -> int:
    """Run every spec, print its record, write the report to `out` if given; the exit code.

    A check that raises becomes an error record, and the checks after it
    still run.
    """
    records = []
    for spec in specs:
        t0 = time.perf_counter()
        try:
            rec = run_check(spec)
        except EllcertError as e:
            print(f"{spec.name}: {e}", file=sys.stderr)
            rec = error_record(spec, e, int(round((time.perf_counter() - t0) * 1000)))
        records.append(rec)
        _print_record(rec)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                json.dump([r.to_json_dict() for r in records], fh, indent=2)
                fh.write("\n")
        except OSError as e:
            print(f"cannot write report: {e}", file=sys.stderr)
            return 3
    return suite_exit_code(records)


def cmd_list(_args) -> int:
    for name, cd in sorted(REGISTRY.items()):
        print(f"{name}: {cd.summary}")
        for key, p in cd.params.items():
            default = "unset" if p.default is None else p.default
            print(f"    {key:10s} = {default!s:20s} {p.allowed}")
    return 0


def cmd_run(args) -> int:
    try:
        specs = load_config(args.config)
    except (OSError, UnicodeError, configparser.Error) as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return 3
    out = args.json or (("default" if args.config == "default" else args.config) + ".report.json")
    return _run_and_report(specs, out)


def cmd_check(args) -> int:
    params = {}
    for kv in args.param or []:
        if "=" not in kv:
            print(f"--param expects key=value, got {kv!r}", file=sys.stderr)
            return 3
        key, value = kv.split("=", 1)
        params[key.strip()] = parse_value(value)
    if args.seed is not None:
        params["seed"] = parse_value(args.seed)
    return _run_and_report([CheckSpec(name=args.name, params=params)], args.json)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3: argparse's own 2 is the INCONCLUSIVE code
        self.exit(3, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="ellcert",
                 description="certify theta-operator identities by seeded sampling")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered checks and their parameters").set_defaults(fn=cmd_list)
    run = sub.add_parser("run", help="run a config suite ('default' for the built-in one)")
    run.add_argument("config")
    run.add_argument("--json", help="report path (default: <config>.report.json)")
    run.set_defaults(fn=cmd_run)
    chk = sub.add_parser("check", help="run a single named check")
    chk.add_argument("name")
    chk.add_argument("--param", action="append", metavar="K=V")
    chk.add_argument("--seed", help="integer >= 0 (default 42)")
    chk.add_argument("--json")
    chk.set_defaults(fn=cmd_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
