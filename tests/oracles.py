"""Independent oracles the tests check the package's fast paths against.

No run of the package reads these; they live with the tests that use
them.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from rivercomp.errors import ConfigError, SolverError
from rivercomp.operators import TransportOperator
from rivercomp.spectral import EigenReport

_DENSE_SIZE_LIMIT = 128


def dense_principal_eigenpair(op: TransportOperator, potential: np.ndarray) -> EigenReport:
    """Dense cross-check of the dominant eigenpair (small grids only).

    Uses a full nonsymmetric eigendecomposition, an entirely different
    algorithm from the iterative path, so agreement between the two is a
    meaningful oracle.  Guarded to systems of at most 128 unknowns.
    ``iterations`` and ``factorizations`` are 0.
    """
    n = op.grid.size
    if n > _DENSE_SIZE_LIMIT:
        raise ConfigError(
            f"dense eigen cross-check is limited to {_DENSE_SIZE_LIMIT} unknowns, got {n}"
        )
    p = np.asarray(potential, dtype=float)
    if p.shape != (n,):
        raise ConfigError(f"potential has shape {p.shape}, expected ({n},)")
    matrix = (op.matrix + sparse.diags(p)).toarray()
    values, vectors = scipy.linalg.eig(matrix)
    k = int(np.argmax(values.real))
    lam = values[k]
    if abs(lam.imag) > 1e-9 * max(1.0, abs(lam.real)):
        raise SolverError(f"dominant eigenvalue came out complex: {lam!r}")
    phi = vectors[:, k].real
    phi = phi / phi[int(np.argmax(np.abs(phi)))]
    if float(np.min(phi)) <= 0.0:
        raise SolverError("dense dominant eigenvector is not one-signed")
    mx = matrix @ phi
    residual = float(np.max(np.abs(mx - lam.real * phi)))
    return EigenReport(
        growth_rate=float(lam.real), phi=phi, iterations=0, residual=residual, factorizations=0
    )
