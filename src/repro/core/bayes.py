"""Improving estimates with priors (Section 3.5).

Bayes' theorem combines an estimation process (the likelihood — the
``Uncertain`` computation itself, available only as a sampling function)
with domain knowledge (the prior).  Because the likelihood has no density,
we compute posteriors by *weighted resampling* (sampling importance
resampling, SIR): draw proposals from the estimate, weight each by the prior
density at its value, and resample proportional to weight.  A rejection
variant is provided for comparison.

Priors are compositional: ``prior_a & prior_b`` multiplies densities, which
is the "mix and match priors from different sources (maps, calendars,
physics)" composition the paper calls for as future work.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.dists.base import Distribution
from repro.dists.empirical import Empirical
from repro.rng import ensure_rng


class PriorConflict(ValueError):
    """The prior gave every proposal zero weight.

    The evidence lies wholly outside what the prior believes possible (a
    GPS glitch that implies a 200 mph walk under a walking-speed prior),
    so no posterior exists for it.  Callers that can act without this
    estimate catch this subclass; other ``ValueError``s still mean a
    programming error.
    """


class Prior:
    """Domain knowledge as a non-negative weight over sample values.

    Construct from a distribution (its density becomes the weight), or from
    an arbitrary weight function for knowledge with no normalised density
    (e.g. "on a road" scores from a map).
    """

    def __init__(self, weight_fn: Callable[[Any], float], label: str = "prior") -> None:
        self._weight_fn = weight_fn
        self.label = label

    @classmethod
    def from_distribution(cls, dist: Distribution, label: str | None = None) -> "Prior":
        return cls(dist.pdf, label or f"prior[{type(dist).__name__}]")

    @classmethod
    def from_weights(cls, weight_fn: Callable[[Any], float], label: str = "prior") -> "Prior":
        return cls(weight_fn, label)

    def weight(self, values: np.ndarray) -> np.ndarray:
        """Vector of non-negative weights for a batch of sample values."""
        try:
            raw = self._weight_fn(values)
            arr = np.asarray(raw, dtype=float)
            if arr.shape != np.shape(values):
                raise TypeError  # fall through to the scalar path
        except (TypeError, ValueError, AttributeError):
            arr = np.array([float(self._weight_fn(v)) for v in values])
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError(f"{self.label} produced negative or non-finite weights")
        return arr

    def __and__(self, other: "Prior") -> "Prior":
        """Product of independent knowledge sources."""
        if not isinstance(other, Prior):
            return NotImplemented

        def combined(values):
            return self.weight(np.asarray(values)) * other.weight(np.asarray(values))

        return Prior(combined, f"({self.label} & {other.label})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Prior({self.label})"


def posterior(
    estimate,
    prior: Prior | Distribution,
    n_proposals: int = 10_000,
    pool_size: int | None = None,
    method: str = "sir",
    rng=None,
):
    """Improve an uncertain estimate with a prior, returning a new Uncertain.

    ``estimate`` is any ``Uncertain`` value; ``prior`` a :class:`Prior` or a
    distribution with a density.  ``method`` selects:

    - ``"sir"`` — sampling importance resampling: weight ``n_proposals``
      draws by the prior and resample ``pool_size`` of them (default: same
      size).  Deterministic sample budget.
    - ``"rejection"`` — accept proposals with probability proportional to
      weight (bound estimated from the proposal batch).  Unbiased but with a
      stochastic, possibly small, yield.

    The result wraps an :class:`~repro.dists.empirical.Empirical` pool, so it
    composes with further computation like any other uncertain value.
    Raises :class:`PriorConflict` when the prior gives every proposal
    zero weight.
    """
    from repro.core.uncertain import Uncertain

    if isinstance(prior, Distribution):
        prior = Prior.from_distribution(prior)
    if n_proposals <= 0:
        raise ValueError(f"n_proposals must be positive, got {n_proposals}")
    rng = ensure_rng(rng)
    proposals = estimate.samples(n_proposals, rng)
    weights = prior.weight(proposals)
    total = weights.sum()
    if total <= 0:
        raise PriorConflict(
            f"prior {prior.label} assigned zero weight to every proposal; "
            "it likely contradicts the estimate's support"
        )
    if method == "sir":
        probs = weights / total
        size = pool_size if pool_size is not None else n_proposals
        idx = rng.choice(n_proposals, size=size, p=probs)
        pool = proposals[idx]
    elif method == "rejection":
        bound = weights.max()
        accept = rng.random(n_proposals) < weights / bound
        pool = proposals[accept]
        if len(pool) == 0:
            raise ValueError("rejection sampling accepted no proposals")
    else:
        raise ValueError(f"unknown posterior method {method!r}")
    return Uncertain(Empirical(pool))
