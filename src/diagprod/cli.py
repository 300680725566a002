"""Command-line front end.

Subcommands
-----------
boundary     sample the boundary curve; columns alpha, re, im, theta, r
gamma-image  sample the two-parameter interior map over [0,pi] x [1,n-1];
             columns alpha, y, re, im, jacobian
membership   one-line region verdict for a point, from both oracles
extremal     emit a boundary-attaining matrix (by polar angle or by curve
             parameter) with its diagonal product and the analytic curve value
preimage     print a special unitary matrix whose diagonal product is the
             requested point, with the residual
verify       run a verification suite and write its report as JSON

Exit codes: 0 success / point not outside / verification passed;
1 outside verdict or failed verification; 2 invalid arguments;
3 I/O failure; 4 solver non-convergence.

All angles are radians.  Seeds default to 0 and are echoed in every output
header.  CSV cells carry 17 significant digits, so parsed values round-trip
exactly; reruns with identical flags are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .boundary import big_gamma, gamma, jacobian_big_gamma, radius_of_theta, theta_of_alpha
from .constructors import build_extremal, build_u_theta, random_extremal
from .matrices import diag_product
from .region import Membership, su_region_contains, su_region_contains_winding
from .verify import (
    PreimageConvergenceError,
    constrained_max_numeric,
    monte_carlo_containment,
    preimage,
    verify_preimage,
    verify_unit_disk,
    verify_so_interval,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NO_CONVERGENCE = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class OutputRecord:
    """Tabular command output: versioned schema, echoed parameters, named
    columns and the table as one 2-D float64 array, one row per output line
    and one column per name in ``columns``."""

    schema_version: str
    command: str
    parameters: dict
    columns: list[str]
    rows: np.ndarray

    def to_csv(self) -> str:
        lines = [f"# schema_version={self.schema_version}", f"# command={self.command}"]
        for key in sorted(self.parameters):
            lines.append(f"# {key}={self.parameters[key]}")
        lines.append(",".join(self.columns))
        # '%.17g' % x formats exactly as format(x, '.17g')
        row_fmt = ",".join(["%.17g"] * len(self.columns))
        lines.extend(row_fmt % tuple(r) for r in self.rows.tolist())
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        # json.dumps(payload, indent=2), but the C encoder (indent=None) writes the cells
        payload = {
            "schema_version": self.schema_version,
            "command": self.command,
            "parameters": self.parameters,
            "columns": self.columns,
            "rows": self.rows.tolist(),
        }
        if not self.rows.size:
            return json.dumps(payload, indent=2) + "\n"
        cells = json.dumps(payload.pop("rows"), separators=(",\n      ", ": "))[2:-2]
        rows = cells.replace("],\n      [", "\n    ],\n    [\n      ")
        head = json.dumps(payload, indent=2)[:-2]
        return f'{head},\n  "rows": [\n    [\n      {rows}\n    ]\n  ]\n}}\n'

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()


def _emit(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _echo(args, *names) -> dict:
    """The named flags of a command, echoed in its output in the given order."""
    return {name: getattr(args, name) for name in names}


def _emit_table(args, command: str, parameters: dict, columns: list[str], rows: np.ndarray) -> int:
    """Write one table command's output: its record, in ``--format``, to
    ``--out`` or standard output."""
    record = OutputRecord(SCHEMA_VERSION, command, parameters, columns, rows)
    return _emit(record.render(args.format), args.out)


def _cmd_boundary(args) -> int:
    n, samples = args.n, args.samples
    # spacing 2*pi/samples starting at -pi; the curve closes at the seam
    # (gamma(-pi) = gamma(pi)), so the omitted right endpoint repeats no data
    # and even sample counts pass through alpha = 0
    alphas = np.linspace(-np.pi, np.pi, samples, endpoint=False)
    values = gamma(n, alphas)
    thetas = theta_of_alpha(n, alphas) if n >= 3 else np.angle(values)
    return _emit_table(
        args,
        "boundary",
        _echo(args, "n", "samples", "seed"),
        ["alpha", "re", "im", "theta", "r"],
        np.column_stack([alphas, values.real, values.imag, thetas, np.abs(values)]),
    )


def _cmd_gamma_image(args) -> int:
    n = args.n
    alphas = np.linspace(0.0, np.pi, args.alpha_samples)
    ys = np.linspace(1.0, n - 1.0, args.y_samples)
    aa, yy = np.meshgrid(alphas, ys, indexing="ij")
    zs = big_gamma(n, aa, yy)
    jac = jacobian_big_gamma(n, aa, yy)
    rows = np.stack([aa, yy, zs.real, zs.imag, jac], -1).reshape(-1, 5)
    return _emit_table(
        args,
        "gamma-image",
        _echo(args, "n", "alpha_samples", "y_samples", "seed")
        | {"reference_circle_radius": _fmt((1.0 - 2.0 / n) ** n)},
        ["alpha", "y", "re", "im", "jacobian"],
        rows,
    )


def _cmd_membership(args) -> int:
    z = complex(args.re, args.im)
    polar = su_region_contains(args.n, z, args.tol)
    line = f"n={args.n} z={_fmt(args.re)}{args.im:+.17g}i polar={polar.status.value} margin={_fmt(polar.signed_margin)}"
    if args.n >= 3:
        winding = su_region_contains_winding(args.n, z, tol=args.tol)
        line += f" winding={winding.status.value} margin={_fmt(winding.signed_margin)}"
    print(line)
    return EXIT_OK if polar.status is not Membership.OUTSIDE else EXIT_NEGATIVE


def _cmd_extremal(args) -> int:
    n = args.n
    if args.theta is not None:
        u = build_u_theta(n, args.theta)
        analytic = complex(np.exp(1j * args.theta) * radius_of_theta(n, args.theta).r)
        mode = {"theta": _fmt(args.theta)}
    else:
        d = random_extremal(n, seed=args.seed, alpha=args.alpha)
        u = build_extremal(d)
        analytic = gamma(n, args.alpha)
        mode = {"alpha": _fmt(args.alpha)}
    pd = diag_product(u)
    params = {
        **_echo(args, "n", "seed"),
        **mode,
        "diag_product_re": _fmt(pd.real),
        "diag_product_im": _fmt(pd.imag),
        "gamma_re": _fmt(analytic.real),
        "gamma_im": _fmt(analytic.imag),
        "abs_error": _fmt(abs(pd - analytic)),
    }
    # row i holds the real and imaginary parts of u[i, 0], u[i, 1], ... in turn,
    # as complex128 lays them out
    columns = [f"c{j}_{part}" for j in range(1, n + 1) for part in ("re", "im")]
    return _emit_table(args, "extremal", params, columns, u.view(np.float64))


def _cmd_preimage(args) -> int:
    z = complex(args.re, args.im)
    u = preimage(args.n, z, args.tol)
    residual = abs(diag_product(u) - z)
    print(f"residual={_fmt(residual)}")
    for i in range(u.shape[0]):
        print(" ".join(f"{_fmt(u[i, j].real)}{u[i, j].imag:+.17g}i" for j in range(u.shape[1])))
    return EXIT_OK


# verify --kind: each kind and the library call that runs it, in the order
# that --help lists them
_VERIFY_KINDS = {
    "montecarlo": lambda args: monte_carlo_containment(args.n, args.trials, args.seed, args.tol),
    "preimage": lambda args: verify_preimage(args.n, args.trials, args.seed, max(args.tol, 1e-12)),
    "constrainedmax": lambda args: constrained_max_numeric(args.n, args.theta, seed=args.seed),
    "disk": lambda args: verify_unit_disk(args.n, args.trials, args.seed, args.grid),
    "so": lambda args: verify_so_interval(args.n, args.sweep, args.trials, args.seed),
}


def _cmd_verify(args, error) -> int:
    """Run one verification kind; ``error`` is the verify parser's usage
    error, for the constrainedmax kind, which alone needs ``--theta``."""
    if args.kind == "constrainedmax" and args.theta is None:
        error("--theta is required for --kind constrainedmax")
    report = _VERIFY_KINDS[args.kind](args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "parameters": _echo(args, "kind", "n", "trials", "grid", "sweep", "theta", "tol", "seed"),
        "report": report.to_dict(),
    }
    text = json.dumps(payload, indent=2) + "\n"
    code = _emit(text, args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _sample_count(text: str) -> int:
    count = int(text)
    if count < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {count}")
    return count


def _tolerance(text: str) -> float:
    tol = float(text)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return tol


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It checks only what no
    library call checks (sample counts >= 2, ``--tol`` finite and positive);
    the library rejects a bad n or trial count with ValueError, which
    :func:`main` turns into exit code 2."""
    parser = argparse.ArgumentParser(
        prog="diagprod",
        description="Diagonal-product image of SU(n): curves, membership, "
        "extremal matrices, preimages and verification (angles in radians).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--n", type=int, required=True)
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tol", type=_tolerance, default=1e-9)
    point = argparse.ArgumentParser(add_help=False, parents=[tolerance])
    point.add_argument("--re", type=float, required=True)
    point.add_argument("--im", type=float, required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None)
    output.add_argument("--seed", type=int, default=0)
    table = argparse.ArgumentParser(add_help=False, parents=[output])
    table.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser(
        "boundary",
        parents=[size, table],
        help="sample the boundary curve",
        description="Sample the boundary curve uniformly in its parameter. "
        "Columns: alpha (curve parameter, radians), re/im (curve value), "
        "theta (polar angle), r (polar radius).",
    )
    p.add_argument("--samples", type=_sample_count, default=1024)
    p.set_defaults(run=_cmd_boundary)

    p = sub.add_parser(
        "gamma-image",
        aliases=["gamma_image"],
        parents=[size, table],
        help="sample the interior map",
        description="Sample the two-parameter interior map over "
        "[0, pi] x [1, n-1].  Columns: alpha, y (map parameters), re/im "
        "(map value), jacobian (closed-form Jacobian).  The header carries "
        "the reference circle radius (1-2/n)^n.",
    )
    p.add_argument("--alpha-samples", type=_sample_count, default=256)
    p.add_argument("--y-samples", type=_sample_count, default=128)
    p.set_defaults(run=_cmd_gamma_image)

    sub.add_parser(
        "membership", parents=[size, point], help="classify a point against the region"
    ).set_defaults(run=_cmd_membership)

    p = sub.add_parser(
        "extremal",
        parents=[size, table],
        help="emit a boundary-attaining matrix",
        description="Emit a boundary-attaining special unitary matrix, by "
        "curve parameter --alpha (random gauge, seeded) or polar angle "
        "--theta (equal-weight representative).  Columns: c{j}_re, c{j}_im "
        "(entries of matrix row i, column j).  The header carries the "
        "diagonal product and the analytic curve value for comparison.",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--theta", type=float, default=None)
    mode.add_argument("--alpha", type=float, default=None)
    p.set_defaults(run=_cmd_extremal)

    sub.add_parser(
        "preimage", parents=[size, point], help="matrix with a prescribed diagonal product"
    ).set_defaults(run=_cmd_preimage)

    p = sub.add_parser("verify", parents=[size, tolerance, output], help="run a verification suite")
    p.add_argument("--kind", choices=_VERIFY_KINDS, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--sweep", type=int, default=10000)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(run=functools.partial(_cmd_verify, error=p.error))

    return parser


def main(argv=None) -> int:
    """Run one command; its exit code.  A library ValueError (a bad
    argument) exits 2 and a PreimageConvergenceError exits 4, each after one
    ``error: ...`` line on standard error."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, PreimageConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_NO_CONVERGENCE
