"""Closed-form suboptimality bounds and the sharing-benefit ratio.

For labeled size N0 with coverage C0 and unlabeled size N1 with coverage C1,

    total = 2c*r_max/(1-gamma)^2 * sqrt(d^3 zeta1 / (N0 C0 + N1 C1))
          + 4*r_max/(1-gamma)    * sqrt(d^2 zeta2 / (N0 C0)),

    zeta1 = log(4 d (N0+N1) / ((1-gamma) delta)),  zeta2 = log(2 d N0 / delta).

The sharing-benefit ratio compares this against the N1=0 bound; its two-term
approximation sqrt(N0 C0/(N0 C0 + N1 C1)) + 2(1-gamma)/(c sqrt(d)) drops the
logarithmic factors, so both the approximation and the exact ratio are
exposed. Also here: the constant relabel-with-zeros bias, which is linear in
the unlabeled fraction.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from pdslab.data import OfflineDataset
from pdslab.mdp import discount, nonnegative, positive, probability, require


@dataclass(frozen=True)
class BoundInputs:
    d: int
    n0: int
    n1: int
    c0_dagger: float
    c1_dagger: float
    gamma: float
    r_max: float
    delta: float
    c: float = 1.0

    def __post_init__(self):
        require("d", self.d, positive, "an integer >= 1", integer=True)
        require("n0", self.n0, positive, "an integer >= 1", integer=True)
        require("n1", self.n1, nonnegative, "an integer >= 0", integer=True)
        require("c0_dagger", self.c0_dagger, nonnegative, "finite and nonnegative")
        require("c1_dagger", self.c1_dagger, nonnegative, "finite and nonnegative")
        require("gamma", self.gamma, discount, "finite and in [0,1)")
        require("r_max", self.r_max, positive, "finite and positive")
        require("delta", self.delta, probability, "finite and in (0,1)")
        require("c", self.c, positive, "finite and positive")


@dataclass(frozen=True)
class PdsBound:
    total: float
    offline_term: float
    reward_term: float
    finite: bool
    note: str = ""


def pds_bound(inputs: BoundInputs) -> PdsBound:
    """Evaluate both terms of the suboptimality bound at the given inputs."""
    i = inputs
    mass0 = i.n0 * i.c0_dagger
    mass1 = i.n1 * i.c1_dagger
    zeta1 = np.log(4.0 * i.d * (i.n0 + i.n1) / ((1.0 - i.gamma) * i.delta))
    zeta2 = np.log(2.0 * i.d * i.n0 / i.delta)

    if mass0 + mass1 > 0:
        offline = float(
            2.0 * i.c * i.r_max / (1.0 - i.gamma) ** 2
            * np.sqrt(i.d**3 * zeta1 / (mass0 + mass1))
        )
    else:
        offline = np.inf
    if mass0 > 0:
        reward = float(4.0 * i.r_max / (1.0 - i.gamma) * np.sqrt(i.d**2 * zeta2 / mass0))
    else:
        reward = np.inf

    finite = np.isfinite(offline) and np.isfinite(reward)
    note = "" if finite else "labeled coverage mass N0*C0 is zero; bound is vacuous"
    return PdsBound(
        total=offline + reward,
        offline_term=offline,
        reward_term=reward,
        finite=finite,
        note=note,
    )


def sbr_approx(inputs: BoundInputs) -> float:
    """Two-term ratio approximation: finite-sample share plus asymptote."""
    mass0 = inputs.n0 * inputs.c0_dagger
    mass1 = inputs.n1 * inputs.c1_dagger
    if mass0 <= 0:
        raise ValueError("sbr needs positive labeled coverage mass")
    finite_sample = np.sqrt(mass0 / (mass0 + mass1))
    asymptote = 2.0 * (1.0 - inputs.gamma) / (inputs.c * np.sqrt(inputs.d))
    return float(finite_sample + asymptote)


def sbr_exact(inputs: BoundInputs) -> float:
    """Bound with sharing divided by the same bound starved of unlabeled data."""
    shared = pds_bound(inputs)
    alone = pds_bound(replace(inputs, n1=0))
    if not alone.finite:
        raise ValueError("sbr needs positive labeled coverage mass")
    return shared.total / alone.total


def uds_bias(d1: OfflineDataset, n0: int) -> float:
    """Mean absolute annotation error of relabel-with-zeros over the mixture.

    d1 must carry the true rewards (oracle relabeling at test time); labeled
    rows contribute no error, so the mixture bias is the unlabeled fraction
    times the mean absolute true reward.
    """
    if not d1.labeled:
        raise ValueError("uds_bias needs true rewards on the unlabeled dataset")
    require("n0", n0, nonnegative, "an integer >= 0", integer=True)
    n1 = len(d1)
    if n0 + n1 == 0:
        return 0.0
    return float(n1 / (n0 + n1) * np.abs(d1.rewards).mean())


def bound_holds_rate(sweep_results, bound_inputs_per_run) -> float:
    """Fraction of runs whose worst-state suboptimality stays under the bound.

    sweep_results entries either expose .subopt_max or are plain numbers.
    """
    results = list(sweep_results)
    inputs = list(bound_inputs_per_run)
    if len(results) != len(inputs):
        raise ValueError("results and bound inputs must align one-to-one")
    if not results:
        raise ValueError("need at least one run")
    hits = 0
    for res, inp in zip(results, inputs):
        measured = getattr(res, "subopt_max", res)
        hits += float(measured) <= pds_bound(inp).total
    return hits / len(results)
