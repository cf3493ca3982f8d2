"""Command-line front end.

Subcommands: compress, quantize, info, reconstruct, eig, svd, gevd, cca,
solve.  Dense data travels as raw little-endian float64 files (shape given
by flags); compressed objects travel as TTK1 containers.  Every command
prints a human-readable summary and writes machine-readable key=value
reports (plus a trajectory CSV for the solvers) beside its output file.
All randomness is controlled by --seed, so identical invocations produce
byte-identical outputs at a fixed BLAS thread count: rounding a large
composed operator runs threaded LAPACK, whose last bits depend on the count
(``OMP_NUM_THREADS``/``OPENBLAS_NUM_THREADS``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import container
from .quantize import (
    QuantizationPlan,
    format_report,
    plan_auto,
    quantize_matrix,
    quantize_vector,
    storage_report,
)
from .solvers import (
    SweepConfig,
    _fmt,
    cca,
    eig_block,
    gevd,
    linsolve,
    svd_dominant,
    svd_small_k,
)
from .train import TruncationPolicy, TTMatrix, TTVector, block_extract, tt_svd


def _parse_shape(text: str) -> tuple:
    try:
        shape = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad shape {text!r}; expected comma-separated integers")
    if not shape or any(s < 1 for s in shape):
        raise ValueError(f"bad shape {text!r}; sizes must be positive")
    return shape


def _read_raw(path: str) -> np.ndarray:
    size = os.path.getsize(path)
    if size % 8:
        raise ValueError(f"{path} holds {size} bytes, not a whole number of float64 values")
    data = np.fromfile(path, dtype="<f8")
    if data.size == 0:
        raise ValueError(f"{path} holds no float64 data")
    if not np.isfinite(data).all():
        raise ValueError(f"{path} holds a non-finite value")
    return data.astype(np.float64)


def _write_raw(path: str, data: np.ndarray):
    np.ascontiguousarray(data, dtype="<f8").tofile(path)


def _load(path: str, kind: str = ""):
    """The object in the TTK1 container at ``path``; with ``kind`` "matrix"
    or "vector", refused unless it is a TT matrix or a TT vector."""
    try:
        obj = container.load(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}")
    if kind and not isinstance(obj, {"matrix": TTMatrix, "vector": TTVector}[kind]):
        raise ValueError(f"{path} does not hold a TT {kind}")
    return obj


def _write_text(path: str, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _save_with_report(obj, path: str) -> int:
    """Save ``obj`` to ``path`` and write and print its storage report."""
    container.save(obj, path)
    text = format_report(storage_report(obj))
    _write_text(path + ".report.txt", text)
    print(text, end="")
    return 0


def _sweep_config(args) -> SweepConfig:
    """The solver flags given; ``SweepConfig``'s own defaults fill in the rest."""
    given = vars(args)
    names = [f.name for f in dataclasses.fields(SweepConfig)]
    return SweepConfig(**{name: given[name] for name in names if name in given})


def _add_solver_flags(parser):
    # no defaults here: a flag not given sets no attribute (see _sweep_config)
    flag = functools.partial(parser.add_argument, default=argparse.SUPPRESS)
    flag("--tol", type=float, help="convergence tolerance")
    flag("--max-sweeps", type=int)
    flag("--seed", type=int)
    flag("--rank", type=int, help="bond rank of the iterate")
    flag("--adaptive", action="store_true", help="two-site sweeps with adaptive ranks")
    flag("--trunc-tol", type=float, help="split tolerance for --adaptive")
    flag("--max-rank", type=int)
    parser.add_argument(
        "--allow-nonconverged",
        action="store_true",
        help="exit 0 even if the solver did not converge",
    )


def _solver_outputs(args, report, values=None, header=None) -> int:
    """Write the report, trajectory and values files, print the values and
    the report; returns the exit code (1 if not converged, unless allowed)."""
    _write_text(args.out + ".report.txt", report.to_keyvalue())
    _write_text(args.out + ".trajectory.csv", report.trajectory_csv())
    if values is not None:
        rows = [header] + [f"{i},{_fmt(v)}" for i, v in enumerate(values)]
        text = "\n".join(rows) + "\n"
        _write_text(args.out + ".values.csv", text)
        print(text, end="")
    print(report.to_keyvalue(), end="")
    if not report.converged and not args.allow_nonconverged:
        print("error: solver did not converge (use --allow-nonconverged to accept)", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# commands


def _cmd_compress(args) -> int:
    shape = _parse_shape(args.shape)
    data = _read_raw(args.input)
    total = math.prod(shape)
    if data.size != total:
        raise ValueError(f"file holds {data.size} values but shape {shape} needs {total}")
    return _save_with_report(tt_svd(data.reshape(shape), TruncationPolicy(args.tol)), args.out)


def _matrix_plan(shape: tuple, base: int, mixed_radix: bool):
    """A single size is factorized by the base; several sizes are taken as
    explicit virtual mode sizes, and the base is checked all the same."""
    if len(shape) == 1:
        return plan_auto(shape[0], base, mixed_radix)
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    return QuantizationPlan(shape)


def _cmd_quantize(args) -> int:
    data = _read_raw(args.input)
    policy = TruncationPolicy(args.tol)
    if args.row_shape is not None or args.col_shape is not None:
        if args.row_shape is None or args.col_shape is None:
            raise ValueError("matrix mode needs both --row-shape and --col-shape")
        row_shape = _parse_shape(args.row_shape)
        col_shape = _parse_shape(args.col_shape)
        rows, cols = math.prod(row_shape), math.prod(col_shape)
        if data.size != rows * cols:
            raise ValueError(
                f"file holds {data.size} values but {rows}x{cols} needs {rows * cols}"
            )
        row_plan = _matrix_plan(row_shape, args.base, args.mixed_radix)
        col_plan = _matrix_plan(col_shape, args.base, args.mixed_radix)
        obj = quantize_matrix(data.reshape(rows, cols), row_plan, col_plan, policy)
    else:
        plan = plan_auto(data.size, args.base, args.mixed_radix)
        obj = quantize_vector(data, plan, policy)
    return _save_with_report(obj, args.out)


def _cmd_info(args) -> int:
    obj = _load(args.file)
    print(format_report(storage_report(obj)), end="")
    return 0


def _largest_intermediate(cores) -> int:
    """Entries of the largest two arrays that coexist while
    ``train.mpo_to_full``, the one loop that forms dense arrays, contracts
    these cores (of a TT matrix, or of a TT vector read as one): each
    partial product, the sizes of the sites so far times the next rank,
    together with the one before it; the last partial product is the dense
    result."""
    size, before, peak = 1, 0, 0
    for c in cores:
        size *= math.prod(c.shape[1:-1])
        after = size * c.shape[-1]
        peak = max(peak, before + after)
        before = after
    return peak


def _cmd_reconstruct(args) -> int:
    obj = _load(args.file)
    need = 8 * _largest_intermediate(obj.cores)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"{args.file}: reconstruction needs arrays of {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )
    dense = obj.full()
    _write_raw(args.out, dense)
    print(f"wrote {dense.size} float64 values to {args.out}")
    return 0


def _cmd_eig(args) -> int:
    op = _load(args.operator, "matrix")
    config = _sweep_config(args)
    values, block, report = eig_block(op, args.k, config)
    container.save(block_extract(block, 0) if args.k == 1 else block, args.out + ".tt")
    return _solver_outputs(args, report, values, "index,eigenvalue")


def _cmd_svd(args) -> int:
    op = _load(args.operator, "matrix")
    config = _sweep_config(args)
    if args.k < 1:
        raise ValueError("k must be at least 1")
    if args.smallest:
        values, block, report = svd_small_k(op, args.k, config)
        container.save(block, args.out + ".tt")
    else:
        if args.k != 1:
            raise ValueError("--k > 1 needs --smallest (the dominant route is single-triplet)")
        sigma, u, v, report = svd_dominant(op, config)
        container.save_all([(u, args.out + ".u.tt"), (v, args.out + ".v.tt")])
        values = [sigma]
    return _solver_outputs(args, report, values, "index,singular_value")


def _cmd_gevd(args) -> int:
    x_op = _load(args.x, "matrix")
    a_op = _load(args.a, "matrix")
    b_op = _load(args.b, "matrix")
    config = _sweep_config(args)
    values, block, report = gevd(x_op, a_op, b_op, args.k, config)
    container.save(block, args.out + ".tt")
    return _solver_outputs(args, report, values, "index,eigenvalue")


def _cmd_cca(args) -> int:
    x_op = _load(args.x, "matrix")
    y_op = _load(args.y, "matrix")
    config = _sweep_config(args)
    corr, wx, wy, report = cca(x_op, y_op, args.k, config)
    container.save_all([(wx, args.out + ".wx.tt"), (wy, args.out + ".wy.tt")])
    return _solver_outputs(args, report, corr, "index,correlation")


def _cmd_solve(args) -> int:
    op = _load(args.operator, "matrix")
    rhs = _load(args.rhs, "vector")
    config = _sweep_config(args)
    x, report = linsolve(op, rhs, config)
    container.save(x, args.out + ".tt")
    return _solver_outputs(args, report)


# built once per process: parse_args keeps no state in the parser, and an
# in-process caller (a test, a benchmark) runs main() many times
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttkit",
        description="Tensor-train compression and alternating-sweep solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="dense raw file to TT container")
    p.add_argument("input", help="raw little-endian float64 file")
    p.add_argument("--shape", required=True, help="comma-separated mode sizes")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("quantize", help="fold and compress a long vector or matrix")
    p.add_argument("input")
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument(
        "--row-shape",
        default=None,
        help="matrix mode: row count (factorized by --base) or explicit mode sizes",
    )
    p.add_argument(
        "--col-shape",
        default=None,
        help="matrix mode: column count or explicit mode sizes",
    )
    p.add_argument(
        "--mixed-radix",
        action="store_true",
        help="allow sizes that are not pure powers of the base",
    )
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("info", help="describe a TT container")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("reconstruct", help="TT container back to a raw dense file")
    p.add_argument("file")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("eig", help="smallest eigenpairs of a symmetric operator")
    p.add_argument("operator")
    p.add_argument("--k", type=int, default=1)
    _add_solver_flags(p)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("svd", help="dominant or smallest singular triplets")
    p.add_argument("operator")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--smallest", action="store_true", help="K smallest via the Gram route")
    _add_solver_flags(p)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_svd)

    p = sub.add_parser("gevd", help="generalized eigenpairs of (X A Xᵀ, B)")
    p.add_argument("x")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--k", type=int, default=1)
    _add_solver_flags(p)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_gevd)

    p = sub.add_parser("cca", help="leading canonical correlations of two data operators")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--k", type=int, default=1)
    p.add_argument(
        "--identity-grams",
        action="store_true",
        default=argparse.SUPPRESS,
        help="approximate the data Grams by identities",
    )
    _add_solver_flags(p)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_cca)

    p = sub.add_parser(
        "solve",
        help="solve A x = y: energy sweeps for symmetric positive definite A, "
        "least squares through the normal equations otherwise",
    )
    p.add_argument("operator")
    p.add_argument("--rhs", required=True, help="TT container holding the right-hand side")
    _add_solver_flags(p)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({exc})" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
