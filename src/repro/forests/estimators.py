r"""Forest-based PPR estimators (the Monte-Carlo stage of §5.2 / §6.2).

After a push stage leaves a residual vector ``r``, the remaining mass
to estimate is ``Σ_u r(u) π(u, v)`` (single source, Eq. 6) or
``Σ_u π(v, u) r(u)`` (single target, Eq. 7).  With ``π`` read as a
rooted-in probability (Theorem 3.6), one sampled forest yields, for
*every* node simultaneously:

single source
    basic (FORAL):      ``a_v = Σ_{u : root(u) = v} r(u)``
    improved (FORALV):  ``a_v = d_v · (Σ_{u∈C(v)} r(u)) / (Σ_{u∈C(v)} d_u)``
single target
    basic (BACKL):      ``a_v = r(root(v))``
    improved (BACKLV):  ``a_v = (Σ_{u∈C(v)} r(u)·d_u) / (Σ_{u∈C(v)} d_u)``

where ``C(v)`` is the tree containing ``v``.  The improved versions are
the conditional Monte-Carlo estimators of Theorem 3.8: given the
forest's partition, the root of each tree is degree-distributed
(Theorem 3.7), so replacing the indicator by its conditional
expectation never increases variance (Lemma 5.1) while staying
unbiased.

All four are O(n) per forest via ``np.bincount`` keyed on the root
labels.  Single-node trees of isolated (degree-0) nodes root
themselves with probability one; the improved estimators special-case
the resulting 0/0.

**Directedness.**  The basic estimators are unbiased on directed
graphs too (Theorem 3.6 needs only the Wilson/cycle-popping law, which
holds for any Markov chain).  The *improved* estimators rely on
Theorem 3.7's degree-proportional conditional root distribution, which
requires an undirected graph — on directed inputs they are biased
(verified empirically in the test-suite), so the query algorithms
refuse that combination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigError
from repro.forests.forest import RootedForest

__all__ = [
    "root_indicator",
    "source_estimate_basic",
    "source_estimate_improved",
    "roots_source_estimate_basic",
    "roots_source_estimate_improved",
    "target_estimate_basic",
    "target_estimate_improved",
    "estimator_for",
    "accumulate_estimates",
    "weighted_combine",
    "root_degree_mass",
    "CVAccumulator",
    "accumulate_cv_estimates",
    "cv_beta",
    "cv_combine",
    "cv_stderr",
]


def _check_inputs(forest: RootedForest, residual: np.ndarray) -> np.ndarray:
    residual = np.asarray(residual, dtype=np.float64)
    if residual.shape != (forest.num_nodes,):
        raise ConfigError(
            f"residual must have shape ({forest.num_nodes},), "
            f"got {residual.shape}")
    return residual


def root_indicator(forest: RootedForest, root: int) -> np.ndarray:
    """Boolean vector of the event "``u`` rooted in ``root``" per node.

    One-forest estimate of the column ``π(·, root)`` (Theorem 3.6).
    """
    if not 0 <= root < forest.num_nodes:
        raise ConfigError(f"root {root} out of range")
    return forest.roots == root


def source_estimate_basic(forest: RootedForest,
                          residual: np.ndarray) -> np.ndarray:
    """FORAL estimator: all of a tree's residual mass lands on its root.

    Unbiased for ``Σ_u r(u) π(u, ·)``: the expectation of
    ``Σ_u r(u)·1[root(u) = v]`` is ``Σ_u r(u)·Pr(u rooted in v)``.
    """
    residual = _check_inputs(forest, residual)
    return roots_source_estimate_basic(forest.roots, residual)


def roots_source_estimate_basic(roots: np.ndarray,
                                residual: np.ndarray) -> np.ndarray:
    """:func:`source_estimate_basic` over a bare root-label array."""
    return np.bincount(roots, weights=residual, minlength=roots.size)


def source_estimate_improved(forest: RootedForest, residual: np.ndarray,
                             degrees: np.ndarray) -> np.ndarray:
    """FORALV estimator: spread each tree's mass by degree (Thm 3.8)."""
    residual = _check_inputs(forest, residual)
    degrees = np.asarray(degrees, dtype=np.float64)
    return roots_source_estimate_improved(
        forest.roots, residual, degrees,
        forest.component_degree_mass(degrees)[forest.roots])


def roots_source_estimate_improved(roots: np.ndarray, residual: np.ndarray,
                                   degrees: np.ndarray,
                                   denominator: np.ndarray) -> np.ndarray:
    """:func:`source_estimate_improved` over a bare root-label array.

    ``denominator[u]`` is the degree mass of ``u``'s tree
    (``component_degree_mass(degrees)[roots]``): it depends on the
    forest only, so a caller folding many residuals through one forest
    computes it once.
    """
    tree_residual = np.bincount(roots, weights=residual,
                                minlength=roots.size)
    # isolated single-node trees: the node is its own root w.p. 1
    estimate = residual.copy()
    np.divide(degrees * tree_residual[roots], denominator, out=estimate,
              where=denominator > 0)
    return estimate


def target_estimate_basic(forest: RootedForest,
                          residual: np.ndarray) -> np.ndarray:
    """BACKL estimator: every node inherits its root's residual."""
    residual = _check_inputs(forest, residual)
    return residual[forest.roots]


def target_estimate_improved(forest: RootedForest, residual: np.ndarray,
                             degrees: np.ndarray) -> np.ndarray:
    """BACKLV estimator: degree-weighted tree average of the residual.

    Conditional expectation of :func:`target_estimate_basic` given the
    partition — the tree root is degree-distributed, so
    ``E[r(root) | φ] = Σ_{u∈C} r(u) d_u / Σ_{u∈C} d_u``.
    """
    residual = _check_inputs(forest, residual)
    degrees = np.asarray(degrees, dtype=np.float64)
    tree_weighted = np.bincount(forest.roots, weights=residual * degrees,
                                minlength=forest.num_nodes)
    tree_degree = forest.component_degree_mass(degrees)
    labels = forest.roots
    estimate = np.zeros(forest.num_nodes)
    positive = tree_degree[labels] > 0
    estimate[positive] = (tree_weighted[labels[positive]]
                          / tree_degree[labels[positive]])
    estimate[~positive] = residual[~positive]
    return estimate


# ----------------------------------------------------------------------
# Accumulation over forest streams (shared by the serial Monte-Carlo
# stages and the parallel engine's worker chunks)
# ----------------------------------------------------------------------
def estimator_for(kind: str, improved: bool):
    """Return ``f(forest, residual, degrees) -> estimate`` by name.

    ``kind`` is ``"source"`` or ``"target"``; ``improved`` selects the
    conditional-Monte-Carlo variant.  The basic estimators ignore the
    ``degrees`` argument.
    """
    if kind == "source":
        if improved:
            return source_estimate_improved
        return lambda forest, residual, degrees: source_estimate_basic(
            forest, residual)
    if kind == "target":
        if improved:
            return target_estimate_improved
        return lambda forest, residual, degrees: target_estimate_basic(
            forest, residual)
    raise ConfigError(f"kind must be 'source' or 'target', got {kind!r}")


def weighted_combine(rows, weights) -> np.ndarray:
    """Fold estimate rows into ``Σ_i w_i · rows[i]`` in row order.

    The multi-seed personalization fold: by linearity of every forest
    estimator in the residual, the weighted sum of single-seed rows
    *is* the PPR vector of the seed-set personalization.  Accumulation
    is sequential in the given row order, so a fixed ``(rows, weights)``
    sequence yields bit-identical output — the contract the
    ``query_multiseed == Σ w_i · row_i`` tests pin down.
    """
    rows = list(rows)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(rows),):
        raise ConfigError(
            f"need one weight per row, got {weights.size} weights "
            f"for {len(rows)} rows")
    if not rows:
        raise ConfigError("weighted_combine needs at least one row")
    out = np.zeros_like(np.asarray(rows[0], dtype=np.float64))
    for row, weight in zip(rows, weights):
        out += weight * np.asarray(row, dtype=np.float64)
    return out


def accumulate_estimates(forests, residual: np.ndarray,
                         degrees: np.ndarray | None = None, *,
                         kind: str = "source", improved: bool = False,
                         track_squares: bool = False,
                         counters=None) -> tuple[np.ndarray,
                                                 np.ndarray | None, int]:
    """Fold an iterable of forests into estimator sums.

    Returns ``(sums, squares, drawn)`` where ``sums`` is the per-node
    sum of the per-forest estimates, ``squares`` their elementwise
    squares (``None`` unless ``track_squares``) and ``drawn`` the
    number of forests consumed.  Accumulation order follows the
    iterable, so a fixed forest sequence yields bit-identical sums —
    the property the parallel engine's determinism contract rests on.

    ``counters`` (a :class:`~repro.counters.WorkCounters`) is updated
    with each forest's steps/pops if given.
    """
    residual = np.asarray(residual, dtype=np.float64)
    estimator = estimator_for(kind, improved)
    if improved and degrees is None:
        raise ConfigError("improved estimators need the degree vector")
    sums = np.zeros(residual.size)
    squares = np.zeros(residual.size) if track_squares else None
    drawn = 0
    for forest in forests:
        estimate = estimator(forest, residual, degrees)
        sums += estimate
        if squares is not None:
            squares += estimate * estimate
        if counters is not None:
            counters.record_forest(forest)
        drawn += 1
    return sums, squares, drawn


# ----------------------------------------------------------------------
# Control variates (variance_mode="control_variate")
#
# The basic estimators admit a variate with *known* expectation: the
# root degree-mass  t_v(F) = Σ_{u : root(u) = v} d_u.  On an undirected
# graph the degree vector is the stationary measure (dᵀP = dᵀ, hence
# dᵀΠ = dᵀ), so  E[t_v] = Σ_u d_u π(u, v) = d_v  exactly.  Regressing
# the basic estimate a against t with a scalar coefficient β fitted
# per batch gives the adjusted estimator  â = ā − β·(t̄ − d), which is
# unbiased for any (even data-dependent, asymptotically) β and has
# lower variance wherever a and t correlate.  The improved estimators
# are already the conditional expectation given the partition, so this
# variate is orthogonal to them (Cov = 0) — CV therefore rides the
# *basic* estimator, trading Theorem 3.8's conditioning for a
# regression correction.  Accumulators are plain per-node sums, so
# worker chunks merge deterministically in chunk order exactly like
# ``accumulate_estimates`` output.
# ----------------------------------------------------------------------
def root_degree_mass(forest: RootedForest,
                     degrees: np.ndarray) -> np.ndarray:
    """The CV variate ``t_v = Σ_{u rooted in v} d_u`` (``E[t] = d``)."""
    return forest.component_degree_mass(
        np.asarray(degrees, dtype=np.float64))


@dataclass
class CVAccumulator:
    """Mergeable sums for the control-variate regression.

    ``sums``/``squares`` accumulate the *basic* estimator exactly as in
    :func:`accumulate_estimates`; ``t_sums``, ``at_sums`` and
    ``tt_sums`` are the per-node sums of ``t``, ``a·t`` and ``t²``
    needed to fit β and (optionally) the adjusted variance.
    """

    sums: np.ndarray
    squares: np.ndarray | None
    t_sums: np.ndarray
    at_sums: np.ndarray
    tt_sums: np.ndarray
    drawn: int = 0

    @classmethod
    def zeros(cls, num_nodes: int,
              track_squares: bool = False) -> "CVAccumulator":
        return cls(sums=np.zeros(num_nodes),
                   squares=np.zeros(num_nodes) if track_squares else None,
                   t_sums=np.zeros(num_nodes),
                   at_sums=np.zeros(num_nodes),
                   tt_sums=np.zeros(num_nodes),
                   drawn=0)

    def merge(self, other: "CVAccumulator") -> "CVAccumulator":
        """Fold ``other`` into ``self`` in place (chunk-order merge)."""
        self.sums += other.sums
        if self.squares is not None and other.squares is not None:
            self.squares += other.squares
        self.t_sums += other.t_sums
        self.at_sums += other.at_sums
        self.tt_sums += other.tt_sums
        self.drawn += other.drawn
        return self


def accumulate_cv_estimates(forests, residual: np.ndarray,
                            degrees: np.ndarray, *,
                            kind: str = "source",
                            track_squares: bool = False,
                            counters=None) -> CVAccumulator:
    """Fold forests into the control-variate accumulator sums.

    The estimate is the *basic* estimator of ``kind``; the variate is
    :func:`root_degree_mass` for both kinds (for targets the
    correlation is weaker — the variate lives in root space while the
    estimate reads the root's residual — but unbiasedness and the β=0
    fallback are unaffected).
    """
    residual = np.asarray(residual, dtype=np.float64)
    degrees = np.asarray(degrees, dtype=np.float64)
    estimator = estimator_for(kind, improved=False)
    acc = CVAccumulator.zeros(residual.size, track_squares)
    for forest in forests:
        estimate = estimator(forest, residual, degrees)
        variate = root_degree_mass(forest, degrees)
        acc.sums += estimate
        if acc.squares is not None:
            acc.squares += estimate * estimate
        acc.t_sums += variate
        acc.at_sums += estimate * variate
        acc.tt_sums += variate * variate
        if counters is not None:
            counters.record_forest(forest)
        acc.drawn += 1
    return acc


def cv_beta(acc: CVAccumulator) -> float:
    """Least-squares β̂ = Ĉov(a, t) / V̂ar(t) pooled over all nodes.

    Computed from the mergeable sums alone:
    ``β̂ = [Σ_v S_at,v − (1/F)·Σ_v S_a,v·S_t,v]
    / [Σ_v S_tt,v − (1/F)·Σ_v S_t,v²]``.  Degenerate variates
    (``V̂ar(t) ≈ 0``, e.g. a single forest or a regular graph where t
    is a.s. constant) fall back to β = 0, i.e. the unadjusted basic
    estimator.
    """
    if acc.drawn <= 1:
        return 0.0
    drawn = float(acc.drawn)
    covariance = float(acc.at_sums.sum()
                       - (acc.sums * acc.t_sums).sum() / drawn)
    variance = float(acc.tt_sums.sum()
                     - (acc.t_sums * acc.t_sums).sum() / drawn)
    if variance <= 1e-12 * max(1.0, float(acc.tt_sums.sum())):
        return 0.0
    return covariance / variance


def cv_combine(acc: CVAccumulator, expected: np.ndarray,
               counters=None) -> tuple[np.ndarray, float]:
    """Adjusted estimate ``ā − β̂·(t̄ − E[t])`` plus the fitted β̂.

    ``expected`` is the variate's known expectation (the degree vector
    for :func:`root_degree_mass`).  Credits ``counters.cv_fits`` with
    the one regression fit this batch performed.
    """
    if acc.drawn <= 0:
        raise ConfigError("cv_combine needs at least one forest")
    beta = cv_beta(acc)
    expected = np.asarray(expected, dtype=np.float64)
    estimate = (acc.sums - beta * (acc.t_sums - acc.drawn * expected))
    estimate /= acc.drawn
    if counters is not None:
        counters.cv_fits += 1
    return estimate, beta


def cv_stderr(acc: CVAccumulator, beta: float) -> np.ndarray:
    """Per-node standard error of the β-adjusted mean estimate.

    Treats β as fixed: ``Var(a − β·t) = Var(a) − 2β·Cov(a, t)
    + β²·Var(t)`` per node, all readable from the accumulator sums.
    Requires ``track_squares`` accumulation.
    """
    if acc.squares is None:
        raise ConfigError("cv_stderr needs track_squares accumulation")
    if acc.drawn <= 1:
        return np.zeros_like(acc.sums)
    drawn = float(acc.drawn)
    mean_a = acc.sums / drawn
    mean_t = acc.t_sums / drawn
    var = (acc.squares / drawn - mean_a * mean_a
           - 2.0 * beta * (acc.at_sums / drawn - mean_a * mean_t)
           + beta * beta * (acc.tt_sums / drawn - mean_t * mean_t))
    return np.sqrt(np.maximum(var, 0.0) / drawn)
