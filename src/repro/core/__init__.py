"""The uncertain type: Bayesian-network computation over sampling functions.

This package implements Sections 3 and 4 of the paper:

- :mod:`repro.core.graph` — the Bayesian-network representation that lifted
  operators construct (Figures 7 and 8).
- :mod:`repro.core.plan` — compilation of node DAGs into flat, reusable
  evaluation plans, cached per root (Section 4.2's "much like a JIT").
- :mod:`repro.core.engines` — pluggable execution engines running compiled
  plans (vectorized numpy default, reference interpreter).
- :mod:`repro.core.sampling` — ancestral-sampling facade over the
  plan/engine layer with per-joint-sample memoisation (Section 4.2).
- :mod:`repro.core.uncertain` — the ``Uncertain[T]`` type and its operator
  algebra (Table 1).
- :mod:`repro.core.sprt` — Wald's sequential probability ratio test and the
  fixed-size and group-sequential alternatives (Section 4.3).
- :mod:`repro.core.conditionals` — evaluation configuration for implicit and
  explicit conditionals (Section 3.4).
- :mod:`repro.core.expectation` — the expected-value operator ``E``.
- :mod:`repro.core.bayes` — improving estimates with priors (Section 3.5).
- :mod:`repro.core.lifting` — lifting arbitrary functions over uncertain
  values.
"""

from repro.core.uncertain import Uncertain, UncertainBool, uncertain
from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    BindNode,
    LeafNode,
    Node,
    PointMassNode,
    UnaryOpNode,
)
from repro.core.plan import (
    EvaluationPlan,
    PlanTelemetry,
    clear_plan_cache,
    compile_plan,
    invalidate_plan,
    plan_cache_size,
)
from repro.core.engines import (
    ExecutionEngine,
    InterpreterEngine,
    NumpyEngine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.core.sampling import (
    DeadlineExceeded,
    SampleBudgetExceeded,
    SampleContext,
    SamplingError,
)
from repro.core.sprt import (
    FixedSampleTest,
    GroupSequentialTest,
    HypothesisTest,
    SPRT,
    TestDecision,
    TestResult,
)
from repro.core.conditionals import EvaluationConfig, get_config, evaluation_config
from repro.core.expectation import expected_value, expected_value_adaptive
from repro.core.bayes import Prior, PriorConflict, posterior
from repro.core.lifting import apply, lift
from repro.core.joint import ComponentNode, correlated_gaussians, joint
from repro.core.viz import describe, summary, to_dot

__all__ = [
    "Uncertain",
    "UncertainBool",
    "uncertain",
    "Node",
    "LeafNode",
    "PointMassNode",
    "BinaryOpNode",
    "UnaryOpNode",
    "ApplyNode",
    "BindNode",
    "EvaluationPlan",
    "PlanTelemetry",
    "compile_plan",
    "invalidate_plan",
    "clear_plan_cache",
    "plan_cache_size",
    "ExecutionEngine",
    "NumpyEngine",
    "InterpreterEngine",
    "get_engine",
    "register_engine",
    "available_engines",
    "SampleContext",
    "SamplingError",
    "SampleBudgetExceeded",
    "DeadlineExceeded",
    "HypothesisTest",
    "SPRT",
    "FixedSampleTest",
    "GroupSequentialTest",
    "TestDecision",
    "TestResult",
    "EvaluationConfig",
    "get_config",
    "evaluation_config",
    "expected_value",
    "expected_value_adaptive",
    "Prior",
    "posterior",
    "PriorConflict",
    "lift",
    "apply",
    "joint",
    "correlated_gaussians",
    "ComponentNode",
    "describe",
    "to_dot",
    "summary",
]
