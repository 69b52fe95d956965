"""The ``Uncertain[T]`` type (Table 1 of the paper).

An ``Uncertain`` value encapsulates a random variable.  Its overloaded
operators construct Bayesian-network representations of computations instead
of executing them; the runtime samples those networks lazily at conditional
expressions, ``expected_value`` calls, and explicit ``sample`` requests.

Comparison operators return :class:`UncertainBool` — a Bernoulli random
variable whose parameter is the *evidence* for the comparison.  Using an
``UncertainBool`` where Python needs a concrete truth value (an ``if``)
triggers the implicit conditional: a hypothesis test of whether the evidence
exceeds 0.5 (Section 3.4).  The explicit conditional ``.pr(alpha)`` tests a
developer-chosen evidence threshold, which is how applications trade false
positives against false negatives.
"""

from __future__ import annotations

import operator
import warnings
from typing import Any, Callable

import numpy as np

from repro.core import conditionals as _cond
from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    BindNode,
    LeafNode,
    Node,
    PointMassNode,
    UnaryOpNode,
)
from repro.core.plan import EvaluationPlan, compile_plan
from repro.core.sampling import SampleContext, _execute_plan
from repro.core.sprt import HypothesisTest, TestDecision, TestResult
from repro.dists.base import Distribution
from repro.dists.empirical import Empirical
from repro.dists.sampling_function import FunctionDistribution
from repro.resilience.policies import InconclusiveError, InconclusiveWarning
from repro.rng import ensure_rng
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace


def _as_node(value: Any) -> Node:
    """Coerce an operand into a graph node (Table 1's point-mass lifting)."""
    if isinstance(value, Uncertain):
        return value.node
    if isinstance(value, Node):
        return value
    if isinstance(value, Distribution):
        return LeafNode(value)
    return PointMassNode(value)


class Uncertain:
    """A random variable of base type ``T``, represented by a sampling DAG."""

    __slots__ = ("node", "_plan")

    def __init__(self, source: Any, label: str | None = None) -> None:
        """Wrap ``source`` as an uncertain value.

        ``source`` may be a :class:`~repro.dists.base.Distribution`, a
        zero-argument-style sampling function ``fn(rng) -> sample``, an
        existing graph :class:`Node`, or a plain value (lifted to a point
        mass).
        """
        if isinstance(source, Node):
            node = source
        elif isinstance(source, Distribution):
            node = LeafNode(source, label)
        elif isinstance(source, Uncertain):
            node = source.node
        elif callable(source):
            node = LeafNode(FunctionDistribution(source), label or "sampling_fn")
        else:
            node = PointMassNode(source)
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "_plan", None)

    @classmethod
    def from_node(cls, node: Node) -> "Uncertain":
        out = object.__new__(cls)
        object.__setattr__(out, "node", node)
        object.__setattr__(out, "_plan", None)
        return out

    @property
    def plan(self) -> EvaluationPlan:
        """The compiled evaluation plan for this value's network.

        Compiled on first use and carried on the value (plus the global
        per-root cache), so every draw — the SPRT loop, ``expected_value``,
        ``pr()`` — reuses one flat program instead of re-walking the DAG.
        """
        plan = self._plan
        if plan is None:
            config = _cond.get_config()
            plan = compile_plan(
                self.node,
                telemetry=config.plan_telemetry,
                analyze=config.plan_analyzer,
            )
            object.__setattr__(self, "_plan", plan)
        return plan

    @classmethod
    def pointmass(cls, value: Any) -> "Uncertain":
        """Table 1's ``Pointmass :: T -> U T``."""
        return cls.from_node(PointMassNode(value))

    # -- graph construction: arithmetic -----------------------------------

    def _binary(self, other: Any, op, symbol: str, reflected: bool = False):
        if reflected:
            left, right = _as_node(other), self.node
        else:
            left, right = self.node, _as_node(other)
        return Uncertain.from_node(BinaryOpNode(op, left, right, symbol))

    def _compare(self, other: Any, op, symbol: str) -> "UncertainBool":
        node = BinaryOpNode(op, self.node, _as_node(other), symbol)
        return UncertainBool.from_node(node)

    def __add__(self, other):
        return self._binary(other, operator.add, "+")

    def __radd__(self, other):
        return self._binary(other, operator.add, "+", reflected=True)

    def __sub__(self, other):
        return self._binary(other, operator.sub, "-")

    def __rsub__(self, other):
        return self._binary(other, operator.sub, "-", reflected=True)

    def __mul__(self, other):
        return self._binary(other, operator.mul, "*")

    def __rmul__(self, other):
        return self._binary(other, operator.mul, "*", reflected=True)

    def __truediv__(self, other):
        return self._binary(other, operator.truediv, "/")

    def __rtruediv__(self, other):
        return self._binary(other, operator.truediv, "/", reflected=True)

    def __floordiv__(self, other):
        return self._binary(other, operator.floordiv, "//")

    def __rfloordiv__(self, other):
        return self._binary(other, operator.floordiv, "//", reflected=True)

    def __mod__(self, other):
        return self._binary(other, operator.mod, "%")

    def __rmod__(self, other):
        return self._binary(other, operator.mod, "%", reflected=True)

    def __pow__(self, other):
        return self._binary(other, operator.pow, "**")

    def __rpow__(self, other):
        return self._binary(other, operator.pow, "**", reflected=True)

    def __neg__(self):
        return Uncertain.from_node(UnaryOpNode(operator.neg, self.node, "neg"))

    def __pos__(self):
        return self

    def __abs__(self):
        return Uncertain.from_node(UnaryOpNode(np.abs, self.node, "abs"))

    def map(self, fn: Callable[[Any], Any], vectorized: bool = False,
            label: str | None = None) -> "Uncertain":
        """Functor map: lift a unary function over this variable.

        ``x.map(f)`` is a new uncertain value whose joint samples are
        ``f`` of this one's — correlation with ``x`` (and everything
        sharing its leaves) is preserved, because the mapped node reads
        the same slot.  With ``vectorized=True``, ``fn`` must accept the
        whole sample array at once (faster; required for ufunc fusion).
        """
        return Uncertain.from_node(
            ApplyNode(fn, (self.node,), vectorized=vectorized, label=label)
        )

    def flat_map(
        self, fn: Callable[[Any], Any], label: str | None = None
    ) -> "Uncertain":
        """Monadic bind: ``fn`` maps each joint sample to a *new* uncertain
        value, from which one sample is drawn.

        The exemplar's ``flatMap``: use it when the next stage of a model
        is itself uncertain and *parameterised by* this value — e.g. a
        travel time whose distribution depends on a sampled congestion
        state.  ``fn`` may return an :class:`Uncertain`, a
        :class:`~repro.dists.base.Distribution`, or a plain value (treated
        as a point mass).  Like every lifted operation the bind preserves
        row-wise dependence on this variable; plans containing a bind are
        structurally opaque (no fused kernels, no cross-session sharing).
        """
        return Uncertain.from_node(BindNode(fn, self.node, label=label))

    # -- graph construction: comparisons (Order :: U T -> U T -> U Bool) --

    def __lt__(self, other):
        return self._compare(other, operator.lt, "<")

    def __le__(self, other):
        return self._compare(other, operator.le, "<=")

    def __gt__(self, other):
        return self._compare(other, operator.gt, ">")

    def __ge__(self, other):
        return self._compare(other, operator.ge, ">=")

    def __eq__(self, other):  # type: ignore[override]
        return self._compare(other, operator.eq, "==")

    def __ne__(self, other):  # type: ignore[override]
        return self._compare(other, operator.ne, "!=")

    __hash__ = object.__hash__  # identity semantics; == builds a graph node

    def between(self, low: Any, high: Any) -> "UncertainBool":
        """Evidence that ``low <= self <= high`` (one joint network)."""
        return (low <= self) & (self <= high)

    # -- evaluation --------------------------------------------------------

    def __bool__(self) -> bool:
        raise TypeError(
            "an Uncertain value has no direct truth value; compare it "
            "(e.g. `speed > 4`) to obtain evidence, then branch on that. "
            "Coercing an estimate to a fact is the uncertainty bug the "
            "linter flags as UNC201 — run `python -m repro.analysis lint "
            "<your code>` and see docs/analysis.md for the rule catalogue"
        )

    def sample(
        self,
        rng: np.random.Generator | int | None = None,
        engine: "str | object | None" = None,
    ) -> Any:
        """Draw one joint sample of the computation."""
        return _execute_plan(self.plan, 1, self._draw_rng(rng), engine=engine)[0]

    def samples(
        self,
        n: int,
        rng: np.random.Generator | int | None = None,
        engine: "str | object | None" = None,
    ) -> np.ndarray:
        """Draw ``n`` independent joint samples via the cached plan.

        ``engine`` overrides the ambient configuration's execution engine
        for this draw (a registered name like ``"numpy"``/``"parallel"``
        or an :class:`~repro.core.engines.ExecutionEngine` instance).
        """
        return _execute_plan(self.plan, n, self._draw_rng(rng), engine=engine)

    def sample_with(
        self, context: SampleContext, engine: "str | object | None" = None
    ) -> np.ndarray:
        """Sample under a shared :class:`SampleContext` (shared leaves stay
        consistent across multiple roots).  ``engine`` overrides the
        context's engine for this evaluation."""
        return context.value_of(self.node, engine=engine)

    def expected_value(
        self,
        n: int | None = None,
        rng: np.random.Generator | int | None = None,
        adaptive: bool = False,
        **adaptive_options,
    ) -> Any:
        """Table 1's ``E :: U T -> T`` — sample mean over ``n`` draws.

        The paper's implementation draws a fixed number of samples; ``n``
        defaults to the ambient configuration's ``expectation_samples``.
        With ``adaptive=True`` the CLT stopping rule of
        :func:`repro.core.expectation.expected_value_adaptive` sizes the
        sample instead (its keyword options pass through).
        :meth:`E` is this method under the paper's name — the same
        attribute, not a wrapper.
        """
        from repro.core.expectation import expected_value as _expected

        return _expected(self, n=n, rng=rng, adaptive=adaptive, **adaptive_options)

    # C#-flavoured name used throughout the paper's listings: a true alias
    # (``Uncertain.E is Uncertain.expected_value``), so the signatures can
    # never drift apart.
    E = expected_value  # noqa: N815

    def _estimator_n(self, n: int | None, default_field: str) -> int:
        """Shared ``n`` defaulting for the moment/interval estimators."""
        if n is None:
            n = getattr(_cond.get_config(), default_field)
        if n <= 0:
            raise ValueError(f"sample size must be positive, got {n}")
        return int(n)

    def sd(self, n: int | None = None, rng=None) -> float:
        """Monte-Carlo standard deviation estimate.

        ``n`` defaults to the active configuration's ``estimator_samples``.
        """
        n = self._estimator_n(n, "estimator_samples")
        return float(np.std(np.asarray(self.samples(n, rng), dtype=float)))

    def var(self, n: int | None = None, rng=None) -> float:
        """Monte-Carlo variance estimate.

        ``n`` defaults to the active configuration's ``estimator_samples``.
        """
        n = self._estimator_n(n, "estimator_samples")
        return float(np.var(np.asarray(self.samples(n, rng), dtype=float)))

    def ci(
        self, level: float = 0.95, n: int | None = None, rng=None
    ) -> tuple[float, float]:
        """Central credible interval estimated from ``n`` samples.

        ``n`` defaults to the active configuration's ``ci_samples``.
        """
        if not 0 < level < 1:
            raise ValueError(f"level must be in (0, 1), got {level}")
        n = self._estimator_n(n, "ci_samples")
        values = np.asarray(self.samples(n, rng), dtype=float)
        tail = (1.0 - level) / 2.0
        return (
            float(np.quantile(values, tail)),
            float(np.quantile(values, 1.0 - tail)),
        )

    def percentiles(
        self,
        n: int | None = None,
        *,
        samples: int | None = None,
        rng=None,
        engine: "str | object | None" = None,
    ) -> np.ndarray:
        """The value's percentile curve from a Monte-Carlo draw.

        Returns an array of ``n + 1`` quantile estimates at evenly spaced
        probabilities ``0/n, 1/n, ..., n/n`` — with the default
        ``n=100``, ``p[50]`` is the median and ``p[90]`` the 90th
        percentile, mirroring the exemplar's
        ``total.percentiles(sampleCount=...)``.  ``samples`` is the
        Monte-Carlo sample count (defaults to the active configuration's
        ``ci_samples``); draws go through the cached/optimized plan under
        the ambient engine, budgets and deadline, or under an explicit
        ``engine=`` override.
        """
        if n is None:
            n = 100
        if n < 1:
            raise ValueError(f"percentile divisions must be >= 1, got {n}")
        samples = self._estimator_n(samples, "ci_samples")
        values = np.asarray(
            self.samples(samples, rng, engine=engine), dtype=float
        )
        return np.quantile(values, np.linspace(0.0, 1.0, int(n) + 1))

    def confidence_interval(
        self,
        level: float = 0.95,
        *,
        samples: int | None = None,
        rng=None,
        engine: "str | object | None" = None,
    ) -> tuple[float, float]:
        """Central credible interval at ``level`` (exemplar's
        ``confidenceInterval``).

        ``samples`` defaults to the active configuration's ``ci_samples``;
        the draw honors the ambient engine, budgets and deadline.  The
        short-form :meth:`ci` remains as the positional-argument
        spelling of the same estimator.
        """
        if not 0 < level < 1:
            raise ValueError(f"level must be in (0, 1), got {level}")
        samples = self._estimator_n(samples, "ci_samples")
        values = np.asarray(
            self.samples(samples, rng, engine=engine), dtype=float
        )
        tail = (1.0 - level) / 2.0
        return (
            float(np.quantile(values, tail)),
            float(np.quantile(values, 1.0 - tail)),
        )

    def is_probable(
        self,
        threshold: float = 0.5,
        rng: np.random.Generator | int | None = None,
    ) -> bool:
        """Is this value more likely than ``threshold`` to be truthy?

        The exemplar's ``isProbable``: on an :class:`UncertainBool` it is
        the explicit conditional ``pr(threshold)``; on a general value it
        first lifts truthiness (``self != 0``) and then runs the same
        hypothesis test.  Unlike ``bool()`` coercion this never raises —
        it *is* the sanctioned way to turn evidence into a decision.
        """
        return (self != 0).pr(threshold, rng=rng)

    def histogram(
        self, bins: int = 50, n: int | None = None, rng=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Density histogram of ``n`` samples (counts normalised).

        ``n`` defaults to the active configuration's ``ci_samples``.
        """
        n = self._estimator_n(n, "ci_samples")
        values = np.asarray(self.samples(n, rng), dtype=float)
        return np.histogram(values, bins=bins, density=True)

    def given(self, evidence: "UncertainBool", **kwargs) -> "Uncertain":
        """Conditional distribution given uncertain evidence: ``x.given(x > 0)``.

        The evidence may share variables with this value; joint samples are
        drawn under a shared context and rejected where the evidence fails.
        See :func:`repro.core.conditioning.condition` for the knobs.
        """
        from repro.core.conditioning import condition

        return condition(self, evidence, **kwargs)

    def diagnose(self, samples: int = 0, rng=None, *,
                 bounds: bool = False) -> list:
        """Diagnostics for this value's Bayesian network.

        Runs the interval and affine abstract interpreters of
        :mod:`repro.analysis` over the compiled plan and returns the
        :class:`~repro.analysis.Diagnostic` records — division by
        zero-crossing supports, statically decided comparisons,
        correlation-collapsed comparisons, foldable constant sub-DAGs,
        and friends — without drawing a single sample.  See
        ``docs/analysis.md`` for the rule catalogue.

        With ``samples > 0``, additionally executes a probe batch of
        that many joint samples and appends one runtime **UNC301**
        diagnostic per plan slot that introduced NaN/Inf values,
        attributed by :func:`repro.resilience.attribute_nonfinite`.
        The probe uses its own deterministic RNG (seed 0 unless ``rng``
        is given) so diagnosing never perturbs the ambient sample
        stream.

        With ``bounds=True``, appends one opt-in **UNC100** info
        diagnostic for the root: the affine-inferred support and a sound
        standard-deviation upper bound (``inf`` when nothing bounds it).
        """
        from repro.analysis.diagnostics import analyze_plan

        diagnostics = list(analyze_plan(self.plan))
        if bounds:
            diagnostics.append(self._bounds_diagnostic())
        if samples:
            diagnostics.extend(self._runtime_diagnostics(int(samples), rng))
        return diagnostics

    def _bounds_diagnostic(self):
        """The UNC100 static bound report for this value's root slot."""
        from repro.analysis.affine import infer_affine, sd_bounds
        from repro.analysis.diagnostics import Diagnostic
        from repro.analysis.rules import ALL_RULES

        plan = self.plan
        forms = infer_affine(plan)
        slot = plan.root_slot
        support = forms[slot].range
        sd = sd_bounds(plan, forms)[slot]
        rule = ALL_RULES["UNC100"]
        return Diagnostic(
            rule=rule.id,
            severity=rule.severity,
            message=(
                f"static bounds: support {support}, "
                f"sd <= {sd:.6g} (affine domain, sound upper bounds)"
            ),
            slot=slot,
            node_uid=plan.steps[slot].node.uid,
            node_label=plan.steps[slot].node.label,
            data={
                "support": [support.lower, support.upper],
                "sd_bound": sd,
            },
        )

    def _runtime_diagnostics(self, n: int, rng) -> list:
        """Probe ``n`` joint samples and report UNC301 non-finite findings."""
        from repro.analysis.diagnostics import Diagnostic
        from repro.analysis.rules import ALL_RULES
        from repro.core.engines import get_engine
        from repro.resilience import health as _health

        if n <= 0:
            raise ValueError(f"probe sample size must be positive, got {n}")
        plan = self.plan
        values = get_engine("numpy").run(
            plan, n, ensure_rng(rng if rng is not None else 0)
        )
        rule = ALL_RULES["UNC301"]
        out = []
        for attr in _health.attribute_nonfinite(plan, values):
            step = plan.steps[attr.slot]
            out.append(
                Diagnostic(
                    rule=rule.id,
                    severity=rule.severity,
                    message=f"{attr.describe()} in a probe of {n} joint sample(s)",
                    slot=attr.slot,
                    node_uid=step.node.uid,
                    node_label=step.node.label,
                    data={
                        "rows": attr.rows,
                        "first_row": attr.first_row,
                        "kind": attr.kind,
                        "probe_samples": n,
                    },
                )
            )
        return out

    def to_empirical(self, n: int = 10_000, rng=None) -> "Uncertain":
        """Freeze this computation into a fixed-pool empirical leaf.

        Useful to amortise an expensive network across many downstream
        conditionals — the fixed-pool strategy Parakeet uses for its HMC
        posterior (Section 5.3).
        """
        return Uncertain(Empirical(self.samples(n, rng)))

    @staticmethod
    def _resolve_rng(rng) -> np.random.Generator:
        if rng is None:
            return _cond.get_config().rng
        return ensure_rng(rng)

    @staticmethod
    def _draw_rng(rng):
        """``rng`` for one plain draw: integer seeds pass through as-is.

        ``_execute_plan`` builds the generator itself, so the sample
        ledger sees the seed's ``("seed", s)`` lineage and serves the same
        prefix rows on every call, as a ledger-off draw would.
        """
        if isinstance(rng, (int, np.integer)):
            return rng
        return Uncertain._resolve_rng(rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        from repro.core.graph import node_count

        return f"Uncertain(nodes={node_count(self.node)}, root={self.node.label!r})"


class UncertainBool(Uncertain):
    """``Uncertain[bool]`` — a Bernoulli whose parameter is evidence.

    Logical operators follow Table 1 (``and``/``or``/``not`` lift to the
    network); truth-value conversion runs the implicit conditional.
    """

    __slots__ = ()

    # -- logical algebra ----------------------------------------------------

    def _logical(self, other: Any, op, symbol: str) -> "UncertainBool":
        node = BinaryOpNode(op, self.node, _as_node(other), symbol)
        return UncertainBool.from_node(node)

    def __and__(self, other):
        return self._logical(other, np.logical_and, "and")

    __rand__ = __and__

    def __or__(self, other):
        return self._logical(other, np.logical_or, "or")

    __ror__ = __or__

    def __xor__(self, other):
        return self._logical(other, np.logical_xor, "xor")

    __rxor__ = __xor__

    def __invert__(self):
        return UncertainBool.from_node(
            UnaryOpNode(np.logical_not, self.node, "not")
        )

    # -- conditional semantics ----------------------------------------------

    def __bool__(self) -> bool:
        """Implicit conditional: is it more likely than not to be true?

        Runs the ambient hypothesis test of H0: Pr[cond] <= 0.5 against
        HA: Pr[cond] > 0.5.  An inconclusive test (max samples hit inside
        the indifference region) returns ``False`` — the paper's ternary
        logic.
        """
        return self.pr(0.5)

    def pr(
        self,
        threshold: float = 0.5,
        rng: np.random.Generator | int | None = None,
    ) -> bool:
        """Explicit conditional: evidence exceeds ``threshold``?

        ``(speed < 4).pr(0.9)`` asks for at least 90% evidence, trading
        false positives for false negatives as Section 3.4 describes.
        """
        return self.test(threshold, rng=rng).decision.as_bool()

    def test(
        self,
        threshold: float = 0.5,
        test: HypothesisTest | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> TestResult:
        """Run the conditional's hypothesis test, returning diagnostics."""
        config = _cond.get_config()
        if test is None:
            test = config.make_test(threshold)
        rng = self._resolve_rng(rng)
        plan = self.plan
        window = None
        if config.sample_cache:
            from repro.core.ledger import LEDGER

            window = LEDGER.open_window(plan, rng, None, config)

        def draw(k: int) -> np.ndarray:
            # Sequential batches read disjoint windows of one ledger
            # stream; a plain ledger read would hand every batch the
            # same prefix rows and wreck the test's statistics.
            if window is not None:
                rows = window.draw(k)
                if rows is not None:
                    return np.asarray(rows, dtype=bool)
            return np.asarray(
                _execute_plan(plan, k, rng, use_ledger=False), dtype=bool
            )

        result = test.run(draw)
        config.record(result.samples_used)
        if result.decision is TestDecision.INCONCLUSIVE:
            self._apply_inconclusive_policy(config, result)
        return result

    @staticmethod
    def _apply_inconclusive_policy(config, result: TestResult) -> None:
        """Apply ``config.on_inconclusive`` to a truncated test result.

        ``"best-guess"`` keeps the paper's ternary mapping (inconclusive
        branches ``False``); ``"warn"`` raises an
        :class:`~repro.resilience.InconclusiveWarning`; ``"raise"`` turns
        the truncation into an :class:`~repro.resilience.InconclusiveError`
        carrying the structured :class:`~repro.resilience.Inconclusive`
        outcome.  Every truncation is counted in the runtime metrics and
        traced, whatever the policy.
        """
        policy = config.on_inconclusive
        outcome = result.inconclusive
        sink = _metrics.active()
        if sink is not None:
            sink.record_inconclusive(policy)
        _trace.event(
            "test.inconclusive",
            policy=policy,
            samples=result.samples_used,
            p_hat=result.p_hat,
            threshold=outcome.threshold if outcome is not None else None,
        )
        message = (
            outcome.describe()
            if outcome is not None
            else f"hypothesis test inconclusive after {result.samples_used} samples"
        )
        if policy == "warn":
            warnings.warn(InconclusiveWarning(message), stacklevel=4)
        elif policy == "raise":
            raise InconclusiveError(message, outcome)

    def is_probable(
        self,
        threshold: float = 0.5,
        rng: np.random.Generator | int | None = None,
    ) -> bool:
        """The explicit conditional under the exemplar's name.

        ``(speed > 4).is_probable(0.9)`` is ``(speed > 4).pr(0.9)`` — no
        extra truthiness node is inserted for a value that is already
        Boolean evidence.
        """
        return self.pr(threshold, rng=rng)

    def evidence(self, n: int | None = None, rng=None) -> float:
        """Direct Monte-Carlo estimate of Pr[condition] from ``n`` samples.

        This is the quantity the hypothesis tests reason about; exposing it
        supports plotting figures like the paper's Figure 9.  ``n``
        defaults to the active configuration's ``ci_samples``.
        """
        n = self._estimator_n(n, "ci_samples")
        values = np.asarray(self.samples(n, rng), dtype=bool)
        return float(values.mean())


def uncertain(source: Any, label: str | None = None) -> Uncertain:
    """Convenience constructor: ``uncertain(Gaussian(0, 1))``."""
    return Uncertain(source, label=label)
