"""Centralized numeric tolerances.

Every magic epsilon in the package lives in this one record so that test
oracles and library code agree on what "equal", "symplectic", and
"causally related" mean.
"""

from dataclasses import dataclass

__all__ = ["TOL", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    #: symmetry defect allowed in a covariance matrix
    cov_symmetry: float = 1e-12
    #: uncertainty bound: V + i Omega/2 may have eigenvalues down to -this, in units of max(1, max|V|)
    symplectic_eig_slack: float = 1e-9
    #: defect allowed in S @ Omega @ S.T == Omega, in units of max(1, max|S|)^2
    symplectic_check: float = 1e-10
    #: rank cutoff: singular values at or below this times the largest count as zero
    rank: float = 1e-10
    #: CSS commutation defect max|X P^T| allowed, in units of max|X| * max|P|
    orthogonality: float = 1e-12
    #: synthesized circuit must reproduce its point matrix to this
    synthesis: float = 1e-10
    #: rewrite rules must preserve the window's symplectic map to this
    rewrite: float = 1e-10
    #: slack on lightlike causal-order comparisons
    causal_slack: float = 1e-9
    #: condition-number limit above which rank decisions are flagged
    condition_limit: float = 1e8
    #: simulated recovery fidelity must match the closed form to this
    fidelity_gate: float = 1e-8


TOL = Tolerances()
