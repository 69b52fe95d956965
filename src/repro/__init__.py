"""Uncertain<T>: a first-order type for uncertain data.

A full Python reproduction of Bornholt, Mytkowicz & McKinley (ASPLOS 2014).

The package exposes the paper's primary abstraction, :class:`repro.Uncertain`,
together with the substrates the paper's evaluation depends on:

- :mod:`repro.dists` — probability distributions represented as sampling
  functions (Section 3.2 of the paper).
- :mod:`repro.core` — the uncertain type itself: Bayesian-network
  construction via operator overloading, ancestral sampling, hypothesis-test
  conditionals, and prior-based estimate improvement (Sections 3 and 4).
- :mod:`repro.evaluate` — the unified evaluation API: configuration
  (engine, budgets, metrics), estimators, engine registry.
- :mod:`repro.runtime` — the sampling runtime: the parallel process-pool
  engine, runtime metrics (``repro.runtime.stats()``), span tracing.
- :mod:`repro.resilience` — the resilience layer: numerical-health
  policies (``on_nonfinite``), flaky-source hardening
  (:class:`~repro.resilience.ResilientSource`), and the deterministic
  chaos harness (see ``docs/resilience.md``).
- :mod:`repro.service` — the async service tier: an asyncio evaluation
  front end whose batching coalescer merges concurrent same-shape
  queries into shared bulk evaluations, with admission control,
  backpressure and a Prometheus-style metrics endpoint (see
  ``docs/service.md``).
- :mod:`repro.gps` — the GPS sensor model and GPS-Walking case study
  (Section 5.1).
- :mod:`repro.life` — the noisy-sensor Game of Life case study (Section 5.2).
- :mod:`repro.ml` — the Parakeet Bayesian neural-network case study
  (Section 5.3).
- :mod:`repro.ppl` — a small generative probabilistic-programming baseline
  used for the related-work comparison (Section 6, Figure 17).
- :mod:`repro.experiments` — drivers that regenerate every figure in the
  paper's evaluation.

``__all__`` below is the blessed stable surface: the type and its
constructors, the hypothesis tests, the unified evaluation configuration,
and the runtime errors.  Everything else is reached through its namespace
(``repro.evaluate``, ``repro.runtime``, ``repro.service``, ...); the old
module-level sampling entry points (``sample_once``/``sample_batch``/
``execute_plan``), deprecated since v1.1, were **removed in v2.0** — see
``docs/api.md`` for migration.
"""

from repro.core.uncertain import Uncertain, UncertainBool, uncertain
from repro.core.lifting import apply as apply_lifted
from repro.core.lifting import lift
from repro.core.bayes import Prior, PriorConflict, posterior
from repro.core.conditionals import EvaluationConfig, evaluation_config
from repro.core.sprt import (
    FixedSampleTest,
    GroupSequentialTest,
    HypothesisTest,
    SPRT,
    TestDecision,
)
from repro.core.sampling import (
    DeadlineExceeded,
    SampleBudgetExceeded,
    SamplingError,
)
from repro.resilience import (
    Inconclusive,
    InconclusiveError,
    NonFiniteError,
    SourceFailure,
)

# The evaluate/runtime namespaces load after core: repro.runtime.parallel
# imports repro.core and registers the "parallel" engine as a side effect.
from repro import runtime
from repro import evaluate
from repro import resilience
from repro import service

__version__ = "2.2.0"

__all__ = [
    # the type
    "Uncertain",
    "UncertainBool",
    "uncertain",
    "lift",
    "apply_lifted",
    # priors
    "Prior",
    "posterior",
    "PriorConflict",
    # unified evaluation surface
    "EvaluationConfig",
    "evaluation_config",
    "evaluate",
    "runtime",
    "service",
    # hypothesis tests
    "HypothesisTest",
    "SPRT",
    "FixedSampleTest",
    "GroupSequentialTest",
    "TestDecision",
    # runtime errors
    "SamplingError",
    "SampleBudgetExceeded",
    "DeadlineExceeded",
    # resilience layer
    "resilience",
    "Inconclusive",
    "InconclusiveError",
    "NonFiniteError",
    "SourceFailure",
    "__version__",
]
