"""Seeded generators for the benchmark problem families.

Basis pursuit: min ||x||_1 s.t. Ax = b with A Gaussian and b = A u0 for a
sparse ground truth u0, so every instance is feasible by construction.
Matrix completion: min ||X||_* s.t. X matches a sparse random matrix M on
its observed entries. Both generators are pure functions of
(dims, density, seed) using numpy's default PCG64 bit generator.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .alm import CompositeProblem
from .operators import EntryMask, MatrixMap
from .ppa import MonotoneOperator, affine_operator
from .prox import ProxFunction, l1_norm, singular_value_threshold


@dataclass(frozen=True)
class BpInstance:
    """A basis-pursuit instance with its planted sparse solution."""

    a: np.ndarray
    ground_truth: np.ndarray
    b: np.ndarray
    density: float
    seed: int

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class McInstance:
    """A matrix-completion instance: observed entries of a sparse matrix.

    ``observed_indices`` are row-major flat indices in increasing order and
    ``observed_values`` the matching entries, so the right-hand side is
    read off in a fixed row-major order.
    """

    matrix: np.ndarray
    observed_indices: np.ndarray
    observed_values: np.ndarray
    density: float
    seed: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def gen_bp(m: int, n: int, density: float, seed: int) -> BpInstance:
    """Generate a basis-pursuit instance with ``round(density * n)`` nonzeros."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    nnz = int(round(density * n))
    if nnz < 1:
        raise ValueError(f"density {density} on n={n} leaves an empty ground truth")
    if m >= n:
        warnings.warn(f"m={m} >= n={n}: system is not underdetermined", stacklevel=2)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    support = rng.choice(n, size=nnz, replace=False)
    u0 = np.zeros(n)
    u0[support] = rng.standard_normal(nnz)
    return BpInstance(a=a, ground_truth=u0, b=a @ u0, density=density, seed=seed)


def gen_mc(m: int, n: int, density: float, seed: int) -> McInstance:
    """Generate a matrix-completion instance with ``round(density * m * n)`` observations."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    nnz = int(round(density * m * n))
    if nnz < 1:
        raise ValueError(f"density {density} on {m}x{n} leaves an empty observation set")
    rng = np.random.default_rng(seed)
    support = rng.choice(m * n, size=nnz, replace=False)
    values = rng.standard_normal(nnz)
    matrix = np.zeros(m * n)
    matrix[support] = values
    order = np.argsort(support)
    return McInstance(
        matrix=matrix.reshape(m, n),
        observed_indices=support[order],
        observed_values=values[order],
        density=density,
        seed=seed,
    )


def nuclear_norm_on_vectors(rows: int, cols: int) -> ProxFunction:
    """Nuclear norm of a row-major flattened (rows x cols) matrix."""

    def value(x: np.ndarray) -> float:
        return float(np.linalg.svd(np.reshape(x, (rows, cols)), compute_uv=False).sum())

    def prox(v: np.ndarray, t: float) -> np.ndarray:
        return singular_value_threshold(np.reshape(v, (rows, cols)), t).ravel()

    return ProxFunction(value=value, prox=prox)


def bp_composite(inst: BpInstance) -> CompositeProblem:
    """Basis pursuit as a composite problem over R^n."""
    return CompositeProblem(f=l1_norm(), a_map=MatrixMap(inst.a), b=inst.b)


def mc_composite(inst: McInstance) -> CompositeProblem:
    """Matrix completion as a composite problem over flattened matrices."""
    m, n = inst.shape
    return CompositeProblem(
        f=nuclear_norm_on_vectors(m, n),
        a_map=EntryMask(inst.observed_indices, (m, n)),
        b=inst.observed_values,
    )


def gen_vi_affine(n: int, seed: int) -> tuple[MonotoneOperator, np.ndarray]:
    """Random affine PSD test operator with a planted solution.

    Returns (operator, x0): F(x) = M x + q with M = Q^T Q symmetric PSD and
    q chosen so the planted point solves F(x) = 0.
    """
    rng = np.random.default_rng(seed)
    q_factor = rng.standard_normal((n, n))
    mat = q_factor.T @ q_factor
    solution = rng.standard_normal(n)
    offset = -mat @ solution
    x0 = rng.standard_normal(n)
    return affine_operator(mat, offset, known_solution=solution), x0


def dump_instance(inst, path) -> None:
    """Write an instance as plain text: a header line, then the entries."""
    lines = []
    if isinstance(inst, BpInstance):
        lines.append(f"bp {inst.m} {inst.n} {inst.density:.17g} {inst.seed}")
        for row in inst.a:
            lines.append(" ".join(f"{v:.17g}" for v in row))
        lines.append(" ".join(f"{v:.17g}" for v in inst.ground_truth))
        lines.append(" ".join(f"{v:.17g}" for v in inst.b))
    elif isinstance(inst, McInstance):
        m, n = inst.shape
        lines.append(f"mc {m} {n} {inst.density:.17g} {inst.seed}")
        lines.append(str(inst.observed_indices.size))
        lines.append(" ".join(str(i) for i in inst.observed_indices))
        lines.append(" ".join(f"{v:.17g}" for v in inst.observed_values))
    else:
        raise TypeError(f"cannot serialize {type(inst).__name__}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path):
    """Parse an instance written by ``dump_instance``.

    Raises ValueError, naming the file and the 1-based line, for a missing
    or malformed header line, for a value that does not parse or is not
    finite, for a line with the wrong number of values, and unless the mc
    indices are at least one, increasing and within [0, m * n).
    """
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    header = lines[0] if lines else ""
    try:
        kind, m_str, n_str, density_str, seed_str = header.split()
        m, n, density, seed = int(m_str), int(n_str), float(density_str), int(seed_str)
        if m < 1 or n < 1:  # the rows would be read from the wrong lines
            raise ValueError
    except ValueError:
        raise ValueError(
            f"{path} line 1: expected the header 'kind m n density seed' with integers m, n >= 1 and seed"
            f" and a float density, got {header!r}"
        ) from None

    def row(i, size, dtype=float):
        try:
            values = np.array([dtype(v) for v in lines[i].split()] if i < len(lines) else [], dtype=dtype)
        except (ValueError, OverflowError) as err:
            raise ValueError(f"{path} line {i + 1}: {err}") from None
        if values.size != size:
            raise ValueError(f"{path} line {i + 1}: expected {size} values, got {values.size}")
        if not np.isfinite(values).all():
            raise ValueError(f"{path} line {i + 1}: expected finite values, got {values[~np.isfinite(values)][0]}")
        return values

    if kind == "bp":
        a = np.array([row(1 + i, n) for i in range(m)]).reshape(m, n)
        return BpInstance(a=a, ground_truth=row(1 + m, n), b=row(2 + m, m), density=density, seed=seed)
    if kind == "mc":
        (count,) = row(1, 1, int)
        if count < 1:
            raise ValueError(f"{path} line 2: expected an index count of at least 1, got {count}")
        indices, values = row(2, count, int), row(3, count)
        if indices[0] < 0 or indices[-1] >= m * n or np.any(np.diff(indices) <= 0):
            raise ValueError(f"{path} line 3: mc indices must be increasing within [0, {m * n})")
        matrix = np.zeros(m * n)
        matrix[indices] = values
        return McInstance(
            matrix=matrix.reshape(m, n),
            observed_indices=indices,
            observed_values=values,
            density=density,
            seed=seed,
        )
    raise ValueError(f"unknown instance kind {kind!r}")
