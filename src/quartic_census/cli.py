"""Command-line frontend: classification, validation, densities, censuses and
constants, with reproducible manifests.

Config precedence for global options: flags > QC_* environment > key=value
config file.  All numeric inputs are exact integers (scientific notation is
accepted when integral).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
from decimal import Decimal

from . import __version__
from .forms import BinQuartForm, FamilyCoords, disc_quartic, family_membership, from_form
from .maximality import is_maximal, is_maximal_at
from .order_oracle import order_from_form, p_maximality_oracle


def parse_exact_int(s: str) -> int:
    """Exact integer, accepting forms like '1e8' only when integral."""
    try:
        d = Decimal(s)
        n = int(d)
    except Exception:
        raise argparse.ArgumentTypeError(f"{s!r} is not a number") from None
    if d != n:
        raise argparse.ArgumentTypeError(f"{s!r} is not an integer")
    return n


def _usage_error(message: str):
    """A bad argument is a usage error: one line on stderr, exit code 2 and
    no traceback."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _open_for_write(path: str, what: str):
    """path opened for writing as text, or a usage error naming the option
    what that gave it."""
    try:
        return open(path, "w")
    except OSError as exc:
        _usage_error(f"cannot write {what} file {path!r}: {exc.strerror}")


def _parse_arg(parse, text: str, what: str):
    try:
        return parse(text)
    except ValueError as exc:
        _usage_error(f"bad {what} {text!r}: {exc}")


_GLOBAL_DEFAULTS = {"format": "json", "shards": "1", "out": "", "manifest": ""}


def _resolve(name: str, flag_value, config_file: dict) -> str:
    if flag_value is not None:
        return str(flag_value)
    env = os.environ.get(f"QC_{name.upper()}")
    if env is not None:
        return env
    if name in config_file:
        return config_file[name]
    return _GLOBAL_DEFAULTS[name]


def _load_config_file(path: str | None) -> dict:
    path = path or os.environ.get("QC_CONFIG")
    if not path:
        return {}
    out = {}
    try:
        fh = open(path)
    except OSError as exc:
        _usage_error(f"cannot read config file {path!r}: {exc.strerror}")
    with fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            if not eq:
                _usage_error(f"config file {path!r} line {n}: expected key=value, got {line!r}")
            out[key.strip()] = val.strip()
    return out


def _write_manifest(fh, command: str, config: dict, wall: float, hashes: dict):
    import numpy

    manifest = {
        "command": command,
        "config": config,
        "versions": {
            "quartic_census": __version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "wall_time_s": round(wall, 3),
        "shards": config.get("shards", 1),
        "output_hashes": hashes,
    }
    json.dump(manifest, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _flatten(payload: dict, prefix="") -> dict:
    out = {}
    for k, v in payload.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    import csv as _csv
    import io

    flat = _flatten(payload)
    buf = io.StringIO()
    wr = _csv.writer(buf)
    wr.writerow(flat)
    wr.writerow([v if not isinstance(v, (list, dict)) else json.dumps(v) for v in flat.values()])
    return buf.getvalue()


def cmd_classify(args, globals_) -> dict:
    from .classify import galois_tag_form, is_irreducible, real_signature
    from .resolvent import conductor_poly, decompose_family

    F = _parse_arg(BinQuartForm.parse, args.form, "form")
    if F.a4 == 0:
        _usage_error("leading coefficient a4 must be nonzero")
    d = disc_quartic(F)
    if d == 0:
        _usage_error("form has zero discriminant")
    fams = sorted(family_membership(F))
    report = {
        "form": F.serialize(),
        "disc": d,
        "families": fams,
        "irreducible": is_irreducible(F),
        "galois": galois_tag_form(F).value,
        "r2": real_signature(F).r2,
        "conductors": {},
        "maximality": None,
        "decomposition": None,
    }
    for i in fams:
        c = from_form(F, i)
        report["conductors"][str(i)] = conductor_poly(c)
    if fams:
        c = from_form(F, min(fams))
        rep = is_maximal(c)
        report["maximality"] = json.loads(rep.to_json())
        report["decomposition"] = json.loads(decompose_family(c).to_json())
    return report


def cmd_family(args, globals_) -> dict:
    F = _parse_arg(BinQuartForm.parse, args.form, "form")
    fams = sorted(family_membership(F))
    return {
        "form": F.serialize(),
        "families": fams,
        "coords": {str(i): from_form(F, i).serialize() for i in fams},
    }


def cmd_decompose(args, globals_) -> dict:
    from .resolvent import decompose_family

    dec = _parse_arg(lambda t: decompose_family(FamilyCoords.parse(t)), args.coords, "coordinates")
    return json.loads(dec.to_json())


def cmd_maximal(args, globals_) -> dict:
    c = _parse_arg(FamilyCoords.parse, args.coords, "coordinates")
    rep = _parse_arg(lambda _: is_maximal(c), args.coords, "coordinates")
    out = json.loads(rep.to_json())
    out["coords"] = c.serialize()
    return out


def validate_box(box: int, pmax: int, flip_clause: bool = False) -> dict:
    """Theorem-vs-oracle agreement matrix over |A|,|B|,|C| <= box, p <= pmax.
    It passes when it made at least one comparison and found no mismatch.

    flip_clause deliberately inverts one family-1 clause as a self-test; the
    mismatch counter must then be positive.
    """
    from .arith import primes_upto
    from .forms import to_form

    primes = [int(p) for p in primes_upto(pmax)]
    matrix = {f"{fam},{p}": 0 for fam in (1, 2, 3) for p in primes}
    checked = 0
    mismatches = 0
    for fam in (1, 2, 3):
        for A in range(-box, box + 1):
            if A == 0:
                continue
            for B in range(-box, box + 1):
                for C in range(-box, box + 1):
                    c = FamilyCoords(fam, A, B, C)
                    F = to_form(c)
                    if disc_quartic(F) == 0:
                        continue
                    table = order_from_form(F)
                    for p in primes:
                        want = p_maximality_oracle(table, p)
                        got = is_maximal_at(c, p)
                        if flip_clause and fam == 1 and p == 2 and A % 2 and B % 2 and C % 2:
                            got = not got
                        checked += 1
                        if got != want:
                            mismatches += 1
                            matrix[f"{fam},{p}"] += 1
    return {
        "box": box,
        "pmax": pmax,
        "checked": checked,
        "mismatches": mismatches,
        "per_family_prime": matrix,
        "pass": checked > 0 and mismatches == 0,
    }


def cmd_validate(args, globals_) -> dict:
    from .densities import PRIME_LIMIT_MAX

    # an empty box or prime list would check nothing
    if args.box < 1 or args.pmax < 2:
        _usage_error(f"need --box >= 1 and --pmax >= 2, got {args.box} and {args.pmax}")
    # the prime sieve takes pmax + 1 bytes
    if args.pmax > PRIME_LIMIT_MAX:
        _usage_error(f"--pmax must be at most {PRIME_LIMIT_MAX}, got {args.pmax}")
    return validate_box(args.box, args.pmax, args.flip_clause)


def cmd_densities(args, globals_) -> dict:
    from .arith import is_prime, is_squarefree
    from .densities import DensityTable, rho1, rho2, rho2_prime, rho2_zero, rho_v4

    primes = _parse_arg(lambda t: [int(p) for p in t.split(",")], args.primes, "--primes")
    if not all(is_prime(p) for p in primes):
        _usage_error(f"--primes must list primes, got {args.primes!r}")
    rows = []
    mismatch = 0
    for a in range(-args.a_bound, args.a_bound + 1):
        if a == 0 or not is_squarefree(a):
            continue
        for p in primes:
            closed1 = 8 if p == 2 else p * (2 * p - 1)
            closed2 = 4 if p == 2 else p * (2 * p - 1)
            for kind, fn, closed in (
                ("rho1", rho1, closed1),
                ("rho2", rho2, closed2),
            ):
                r = fn(a, p)
                rows.append(DensityTable(kind, a, p, r, p**4).csv_row(closed))
                mismatch += r != closed
            rp = rho2_prime(a, p)
            rows.append(
                DensityTable("rho2_prime", a, p, rp, 256 * p**4).csv_row(4 * rho2(a, p))
            )
        r0 = rho2_zero(a)
        rows.append(DensityTable("rho2_zero", a, 0, r0, 256).csv_row(4))
        mismatch += r0 != 4
    for p in primes:
        closed = 9 if p == 2 else p * (4 * p - 3)
        r = rho_v4(p)
        rows.append(DensityTable("rho_v4", None, p, r, p**4).csv_row(closed))
        mismatch += r != closed
    csv = "kind,a,m,rho,space,closed_form,match\n" + "\n".join(rows) + "\n"
    # main writes the table in place of the summary
    return {"rows": len(rows), "closed_form_mismatches": mismatch, "_csv": csv}


def cmd_census(args, globals_) -> dict:
    from .census import (
        CensusConfig,
        output_hash,
        run_census,
        summarize,
    )

    r2 = None if args.r2 in (None, "all") else int(args.r2)
    try:
        cfg = CensusConfig(
            x=args.x,
            mode="conductor" if args.census_mode == "conductor" else "discriminant",
            galois=args.galois,
            r2=r2,
            families=tuple(int(t) for t in args.families.split(",")),
            shards=int(globals_["shards"]),
            emit=bool(args.emit),
        )
    except ValueError as exc:
        _usage_error(str(exc))
    # the --emit file is opened before the census runs, so a bad path fails
    # at once; the CSV is written and hashed in one pass
    emit = _open_for_write(args.emit, "--emit") if args.emit else contextlib.nullcontext()
    with emit as fh:
        tal = run_census(cfg)
        summary = summarize(cfg, tal)
        summary["output_hash"] = output_hash(summary, tal if fh else None, out=fh)
    return summary


def cmd_constants(args, globals_) -> dict:
    from .asymptotics import (
        SQRT2,
        elliptic_integrals,
        iplus_closed_form,
        main_term,
        r2_proportions,
    )
    from .densities import PRIME_LIMIT_MAX, euler_product

    which = args.which
    if not 2 <= args.prime_limit <= PRIME_LIMIT_MAX:
        _usage_error(f"--prime-limit must be within [2, {PRIME_LIMIT_MAX}], got {args.prime_limit}")
    if which == "carefree":
        v, t = euler_product("carefree", args.prime_limit)
        return {"which": which, "value": v, "tail_bound": t, "prime_limit": args.prime_limit}
    if which == "integrals":
        ip, im = elliptic_integrals()
        return {
            "which": which,
            "iplus": ip,
            "iminus": im,
            "iplus_closed": iplus_closed_form(),
            "sqrt2_ratio_error": abs(im - SQRT2 * ip),
        }
    if which == "d4-leading":
        mt = main_term("d4_conductor", 10.0**8, prime_limit=args.prime_limit)
        props = r2_proportions()
        return {
            "which": which,
            "components": mt.components,
            "r2_proportions": list(props),
            "constant": mt.components["gamma_factor"]
            * mt.components["zeta_factor"]
            * mt.components["euler_product"]
            * mt.components["r_factor"],
        }
    if which == "v4-leading":
        mt = main_term("v4_disc", 10.0**12, prime_limit=args.prime_limit)
        return {
            "which": which,
            "components": mt.components,
            "constant": mt.components["gamma_factor"]
            * mt.components["euler_product"]
            * mt.components["r_factor"],
        }
    raise SystemExit(f"unknown constant {which!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quartic-census")
    ap.add_argument("--format", choices=("csv", "json"), default=None)
    ap.add_argument("--shards", type=parse_exact_int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--manifest", default=None)
    ap.add_argument("--config", default=None, help="key=value config file")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="full report for one quartic form")
    p.add_argument("form", help="a4,a3,a2,a1,a0")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("family", help="family memberships and coordinates")
    p.add_argument("form")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("decompose", help="h(f,g) decomposition of family coords")
    p.add_argument("coords", help="i:A,B,C")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("maximal", help="maximality report for family coords")
    p.add_argument("coords", help="i:A,B,C")
    p.set_defaults(fn=cmd_maximal)

    p = sub.add_parser("validate", help="criteria vs order oracle on a box")
    p.add_argument("--box", type=parse_exact_int, default=5)
    p.add_argument("--pmax", type=parse_exact_int, default=5)
    p.add_argument("--flip-clause", action="store_true", help="self-test bug injection")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("densities", help="local density table vs closed forms")
    p.add_argument("--a-bound", type=parse_exact_int, default=10)
    p.add_argument("--primes", default="2,3,5")
    p.set_defaults(fn=cmd_densities)

    p = sub.add_parser("census", help="exact counts by conductor/discriminant")
    psub = p.add_subparsers(dest="census_mode", required=True)
    for mode in ("conductor", "discriminant"):
        pm = psub.add_parser(mode)
        pm.add_argument("--x", type=parse_exact_int, required=True)
        pm.add_argument("--r2", choices=("0", "1", "2", "all"), default="all")
        pm.add_argument("--families", default="1,2,3")
        pm.add_argument("--galois", choices=("d4", "v4"), default="d4")
        pm.add_argument("--emit", default=None, help="records CSV path")
        pm.set_defaults(fn=cmd_census)

    p = sub.add_parser("constants", help="leading constants and integrals")
    p.add_argument(
        "--which",
        choices=("carefree", "d4-leading", "v4-leading", "integrals"),
        required=True,
    )
    p.add_argument("--prime-limit", type=parse_exact_int, default=10**6)
    p.set_defaults(fn=cmd_constants)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    cfg_file = _load_config_file(args.config)
    globals_ = {
        name: _resolve(name, getattr(args, name, None), cfg_file)
        for name in _GLOBAL_DEFAULTS
    }
    if globals_["format"] not in ("csv", "json"):
        _usage_error(f"format must be csv or json, got {globals_['format']!r}")
    with contextlib.ExitStack() as files:
        # opened before the command runs, so a path that cannot be written
        # fails at once, not after the work
        out, manifest = (
            files.enter_context(_open_for_write(globals_[name], f"--{name}")) if globals_[name] else None
            for name in ("out", "manifest")
        )
        t0 = time.time()
        payload = args.fn(args, globals_)
        wall = time.time() - t0
        csv_blob = payload.pop("_csv", None)
        (out or sys.stdout).write(_render(payload, globals_["format"]) if csv_blob is None else csv_blob)
        if manifest:
            import hashlib

            hashes = {"summary": hashlib.sha256(
                json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
            ).hexdigest()}
            if csv_blob is not None:
                hashes["csv"] = hashlib.sha256(csv_blob.encode()).hexdigest()
            config_echo = dict(globals_)
            config_echo.update(
                {k: v for k, v in vars(args).items() if k not in ("fn",) and v is not None}
            )
            _write_manifest(
                manifest,
                args.cmd,
                {k: str(v) for k, v in config_echo.items()},
                wall,
                hashes,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
