"""Monotone submodular objectives and their multilinear extensions.

Three oracle families are provided:

* weighted coverage: ``f(S)`` is the total weight of universe elements
  covered by at least one item of ``S``,
* facility location: ``f(S) = sum_r max_{j in S} sim[r, j]`` with
  ``f(empty) = 0``,
* modular: ``f(S)`` is the sum of per-item weights.

``marginals(S)`` returns every item's gain ``f(S + i) - f(S)`` in one call
(zero at members of ``S``), from one vector expression per family; greedy
solvers make one such call per step.

Every oracle also evaluates the multilinear extension ``F(y)``, the expected
value of ``f`` over the random set that includes item ``i`` independently
with probability ``y_i``.  All three families have exact closed forms, and
``extension_gradient`` returns every item's extension marginal
``F(e_i v y) - F(y)`` from one vector expression.  Oracles without a closed
form fall back to full enumeration for small ground sets and to seeded
Monte Carlo otherwise; ``EstimationConfig.force_monte_carlo`` sends every
family down that path.  Monte Carlo marginals use common random numbers
across the two estimated terms so that comparisons between candidate points
are stable.

Oracles are immutable after construction and safe to share between
concurrent callers; Monte Carlo estimation is fully determined by the seed
in the estimation config.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InvalidInstance, ParseError

#: accepted slack on extension coordinates before they are rejected
POINT_TOL = 1e-9

#: hard ceiling for subset enumeration, 2**22 values is ~32 MB
_MAX_ENUMERATION_ITEMS = 22

#: chunk size for batched Monte Carlo evaluation
_BATCH_CHUNK = 8192


@dataclass(frozen=True)
class EstimationConfig:
    """Controls how multilinear extensions are estimated.

    ``samples`` and ``seed`` drive the Monte Carlo path and
    ``exact_threshold`` is the largest ground set for which full enumeration
    replaces sampling; both matter only for oracles without a closed form.
    ``force_monte_carlo`` routes even closed-form objectives through the
    sampling path (useful to exercise estimator behaviour).
    """

    samples: int = 10_000
    seed: int = 0
    exact_threshold: int = 16
    force_monte_carlo: bool = False


DEFAULT_ESTIMATION = EstimationConfig()


@dataclass(frozen=True)
class ExtensionEstimate:
    """Value of F(y) together with how it was obtained.

    ``exact`` is True for closed forms and full enumeration, in which case
    ``stderr`` is zero; Monte Carlo estimates report the sample standard
    error of the mean.
    """

    value: float
    exact: bool
    stderr: float = 0.0

    def __post_init__(self) -> None:
        if self.exact and self.stderr != 0.0:
            raise ValueError("exact estimates must report zero standard error")
        if self.stderr < 0.0:
            raise ValueError("standard error must be non-negative")


class ObjectiveOracle(ABC):
    """Evaluates a non-negative monotone submodular set function.

    Subclasses implement ``_evaluate_ids`` and may override the incremental
    ``_marginal_ids`` and the batched ``_marginals_ids``, ``_evaluate_rows``
    and ``_evaluate_selection_matrix`` hooks for speed, and
    ``_closed_form_extension`` / ``_closed_form_gradient`` when the
    extension has a closed form.  All public entry points validate
    item ids against the ground set ``0 .. item_count - 1``.
    """

    kind: str = "abstract"

    def __init__(self, item_count: int):
        if item_count < 1:
            raise InvalidInstance("objective needs a non-empty ground set")
        self._n = int(item_count)
        self._subset_cache: np.ndarray | None = None

    @property
    def item_count(self) -> int:
        return self._n

    # -- set evaluation ---------------------------------------------------

    def evaluate(self, items: Iterable[int]) -> float:
        """Return f(items)."""
        return self._evaluate_ids(self._check_items(items))

    def marginal(self, item: int, items: Iterable[int]) -> float:
        """Return f(items + item) - f(items); ``item`` must not be in ``items``."""
        ids = self._check_items(items)
        item = self._check_item(item)
        if item in ids:
            raise ValueError(f"item {item} is already in the base set")
        return self._marginal_ids(item, ids)

    def marginals(self, items: Iterable[int]) -> np.ndarray:
        """Return every item's gain f(items + i) - f(items), with 0 at members of ``items``."""
        return self._marginals_ids(self._check_items(items))

    @abstractmethod
    def _evaluate_ids(self, ids: np.ndarray) -> float:
        """Evaluate f on a validated, sorted id array."""

    def _marginal_ids(self, item: int, ids: np.ndarray) -> float:
        extended = np.sort(np.append(ids, item))
        return self._evaluate_ids(extended) - self._evaluate_ids(ids)

    def _marginals_ids(self, ids: np.ndarray) -> np.ndarray:
        """All n gains over a validated, sorted id array; 0 at members."""
        gains = np.zeros(self._n)
        outside = np.ones(self._n, dtype=bool)
        outside[ids] = False
        for item in np.flatnonzero(outside):
            gains[item] = self._marginal_ids(int(item), ids)
        return gains

    def _evaluate_rows(self, ids: np.ndarray) -> np.ndarray:
        """Evaluate f on each row of a (sets, k) array of sorted, distinct ids.

        Entry ``r`` equals ``_evaluate_ids(ids[r])`` bit for bit.
        """
        return np.fromiter(
            (self._evaluate_ids(row) for row in ids), dtype=float, count=ids.shape[0]
        )

    def _evaluate_selection_matrix(self, selections: np.ndarray) -> np.ndarray:
        """Evaluate f row-wise on a boolean (k, n) selection matrix."""
        return np.fromiter(
            (self._evaluate_ids(np.flatnonzero(row)) for row in selections),
            dtype=float,
            count=selections.shape[0],
        )

    # -- multilinear extension --------------------------------------------

    def extension(self, y, cfg: EstimationConfig | None = None) -> ExtensionEstimate:
        """Estimate F(y), exactly whenever a closed form or enumeration applies."""
        cfg = cfg or DEFAULT_ESTIMATION
        y = self._check_point(y)
        if not cfg.force_monte_carlo:
            closed = self._closed_form_extension(y)
            if closed is not None:
                return ExtensionEstimate(float(closed), True, 0.0)
            if self._n <= min(cfg.exact_threshold, _MAX_ENUMERATION_ITEMS):
                return ExtensionEstimate(self._enumeration_extension(y), True, 0.0)
        return self._monte_carlo_extension(y, cfg)

    def extension_marginal(
        self, item: int, y, cfg: EstimationConfig | None = None
    ) -> ExtensionEstimate:
        """Estimate F(e_item v y) - F(y), the extension marginal of one item."""
        cfg = cfg or DEFAULT_ESTIMATION
        return self._extension_marginal_point(self._check_item(item), self._check_point(y), cfg)

    def extension_gradient(self, y, cfg: EstimationConfig | None = None) -> np.ndarray:
        """Return every item's extension marginal ``F(e_i v y) - F(y)`` at once.

        ``y`` is validated once.  Families with a closed form answer in one
        vector expression; otherwise, and under ``force_monte_carlo``, entry
        ``i`` equals ``extension_marginal(i, y, cfg).value`` bit for bit.
        """
        cfg = cfg or DEFAULT_ESTIMATION
        y = self._check_point(y)
        if not cfg.force_monte_carlo:
            gradient = self._closed_form_gradient(y)
            if gradient is not None:
                return gradient
        return np.array([self._extension_marginal_point(i, y, cfg).value for i in range(self._n)])

    def _extension_marginal_point(
        self, item: int, y: np.ndarray, cfg: EstimationConfig
    ) -> ExtensionEstimate:
        y_up = y.copy()
        y_up[item] = 1.0
        if not cfg.force_monte_carlo:
            closed = self._closed_form_extension(y)
            if closed is not None:
                up = self._closed_form_extension(y_up)
                return ExtensionEstimate(float(up) - float(closed), True, 0.0)
            if self._n <= min(cfg.exact_threshold, _MAX_ENUMERATION_ITEMS):
                value = self._enumeration_extension(y_up) - self._enumeration_extension(y)
                return ExtensionEstimate(value, True, 0.0)
        return self._monte_carlo_marginal(item, y, cfg)

    def _closed_form_extension(self, y: np.ndarray) -> float | None:
        """Closed-form F(y) if this family has one, else None."""
        return None

    def _closed_form_gradient(self, y: np.ndarray) -> np.ndarray | None:
        """Closed-form extension marginals of all items if this family has them, else None."""
        return None

    def _enumeration_extension(self, y: np.ndarray) -> float:
        values = self._subset_values()
        probs = np.ones(1)
        for i in range(self._n):
            probs = np.concatenate([probs * (1.0 - y[i]), probs * y[i]])
        return float(probs @ values)

    def _subset_values(self) -> np.ndarray:
        # index is the bitmask of the subset, bit i <=> item i selected
        if self._subset_cache is None:
            if self._n > _MAX_ENUMERATION_ITEMS:
                raise ValueError("ground set too large for full enumeration")
            values = np.empty(1 << self._n)
            for mask in range(1 << self._n):
                ids = np.flatnonzero([(mask >> i) & 1 for i in range(self._n)])
                values[mask] = self._evaluate_ids(ids)
            self._subset_cache = values
        return self._subset_cache

    def _draw_selections(self, y: np.ndarray, cfg: EstimationConfig) -> np.ndarray:
        if cfg.samples < 2:
            raise ConfigError("Monte Carlo estimation needs at least two samples")
        rng = np.random.default_rng(cfg.seed)
        return rng.random((cfg.samples, self._n)) < y

    def _monte_carlo_extension(self, y: np.ndarray, cfg: EstimationConfig) -> ExtensionEstimate:
        values = self._evaluate_selection_matrix(self._draw_selections(y, cfg))
        stderr = float(values.std(ddof=1) / math.sqrt(values.size))
        return ExtensionEstimate(float(values.mean()), False, stderr)

    def _monte_carlo_marginal(
        self, item: int, y: np.ndarray, cfg: EstimationConfig
    ) -> ExtensionEstimate:
        # common random numbers: the same draws evaluate both terms
        sel = self._draw_selections(y, cfg)
        sel_up = sel.copy()
        sel_up[:, item] = True
        diffs = self._evaluate_selection_matrix(sel_up) - self._evaluate_selection_matrix(sel)
        stderr = float(diffs.std(ddof=1) / math.sqrt(diffs.size))
        return ExtensionEstimate(float(diffs.mean()), False, stderr)

    # -- serialization ----------------------------------------------------

    @abstractmethod
    def to_spec(self) -> dict:
        """Return the JSON-serializable descriptor used in instance files."""

    # -- validation helpers -----------------------------------------------

    def _check_item(self, item: int) -> int:
        if not isinstance(item, (int, np.integer)) or isinstance(item, bool):
            raise ValueError(f"item id must be an integer, got {item!r}")
        if not 0 <= item < self._n:
            raise ValueError(f"item id {item} outside ground set of size {self._n}")
        return int(item)

    def _check_items(self, items: Iterable[int]) -> np.ndarray:
        ids = sorted({self._check_item(i) for i in items})
        return np.asarray(ids, dtype=int)

    def _check_point(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self._n,):
            raise ValueError(f"expected a vector of length {self._n}, got shape {y.shape}")
        if np.any(y < -POINT_TOL) or np.any(y > 1.0 + POINT_TOL):
            raise ValueError("extension point has a coordinate outside [0, 1]")
        return np.clip(y, 0.0, 1.0)


class CoverageObjective(ObjectiveOracle):
    """Weighted coverage: each item covers a subset of a weighted universe."""

    kind = "coverage"

    def __init__(
        self,
        item_count: int,
        element_weights: Sequence[float],
        incidence: np.ndarray,
        element_names: Sequence[str] | None = None,
    ):
        super().__init__(item_count)
        weights = np.asarray(element_weights, dtype=float)
        incidence = np.asarray(incidence, dtype=bool)
        if incidence.shape != (weights.size, item_count):
            raise InvalidInstance("coverage incidence must be (elements, items)")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise InvalidInstance("coverage element weights must be finite and non-negative")
        self._weights = weights
        self._incidence = incidence
        # the same 0/1 entries as floats, so products need no per-call cast
        self._incidence_f = incidence.astype(float)
        if element_names is None:
            element_names = tuple(f"e{u}" for u in range(weights.size))
        if len(element_names) != weights.size:
            raise InvalidInstance("one name per universe element required")
        self._element_names = tuple(element_names)

    def _evaluate_ids(self, ids: np.ndarray) -> float:
        if ids.size == 0:
            covered = np.zeros(self._weights.size, dtype=float)
        else:
            covered = self._incidence[:, ids].any(axis=1).astype(float)
        return float(self._weights @ covered)

    def _marginal_ids(self, item: int, ids: np.ndarray) -> float:
        gained = self._incidence[:, item].copy()
        if ids.size:
            gained &= ~self._incidence[:, ids].any(axis=1)
        return float(self._weights @ gained.astype(float))

    def _marginals_ids(self, ids: np.ndarray) -> np.ndarray:
        # members gain nothing: every element they cover is already covered
        uncovered = ~self._incidence[:, ids].any(axis=1)
        return (self._weights * uncovered) @ self._incidence_f

    def _uncovered(self, y: np.ndarray) -> np.ndarray:
        # P(element u uncovered) = prod over covering items of (1 - y_i)
        return np.where(self._incidence, (1.0 - y)[None, :], 1.0).prod(axis=1)

    def _closed_form_extension(self, y: np.ndarray) -> float:
        return float(self._weights @ (1.0 - self._uncovered(y)))

    def _closed_form_gradient(self, y: np.ndarray) -> np.ndarray:
        # raising y_i to one covers every still-uncovered element of item i
        return (self._weights * self._uncovered(y)) @ self._incidence_f

    def _evaluate_selection_matrix(self, selections: np.ndarray) -> np.ndarray:
        covered = selections.astype(float) @ self._incidence.T.astype(float) > 0
        return covered.astype(float) @ self._weights

    def to_spec(self) -> dict:
        elements = {
            name: float(w)
            for name, w in sorted(zip(self._element_names, self._weights))
        }
        covers: dict[str, list[str]] = {}
        for i in range(self._n):
            hit = [self._element_names[u] for u in np.flatnonzero(self._incidence[:, i])]
            covers[str(i)] = sorted(hit)
        return {"type": "coverage", "elements": elements, "covers": covers}


class ModularObjective(ObjectiveOracle):
    """Additive objective: f(S) is the sum of per-item weights."""

    kind = "modular"

    def __init__(self, weights: Sequence[float]):
        weights = np.asarray(weights, dtype=float)
        super().__init__(weights.size)
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise InvalidInstance("modular weights must be finite and non-negative")
        self._weights = weights

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    def _evaluate_ids(self, ids: np.ndarray) -> float:
        return float(self._weights[ids].sum())

    def _marginal_ids(self, item: int, ids: np.ndarray) -> float:
        return float(self._weights[item])

    def _evaluate_rows(self, ids: np.ndarray) -> np.ndarray:
        # each row sums its gathered weights as _evaluate_ids does
        return self._weights[ids].sum(axis=1)

    def _marginals_ids(self, ids: np.ndarray) -> np.ndarray:
        gains = self._weights.copy()
        gains[ids] = 0.0
        return gains

    def _closed_form_extension(self, y: np.ndarray) -> float:
        return float(self._weights @ y)

    def _closed_form_gradient(self, y: np.ndarray) -> np.ndarray:
        return self._weights * (1.0 - y)

    def _evaluate_selection_matrix(self, selections: np.ndarray) -> np.ndarray:
        return selections.astype(float) @ self._weights

    def to_spec(self) -> dict:
        return {"type": "modular", "weights": [float(w) for w in self._weights]}


class FacilityLocationObjective(ObjectiveOracle):
    """Facility location over a non-negative similarity matrix (rows, items).

    The extension has a closed form per row: with the row's similarities in
    descending order ``s_(1) >= s_(2) >= ...``, the row contributes
    ``s_(k)`` exactly when item ``(k)`` is the first selected one, so
    ``F(y) = sum_r sum_k s_(k) y_(k) prod_{j<k} (1 - y_(j))``.
    """

    kind = "facility_location"

    def __init__(self, similarity: np.ndarray):
        similarity = np.asarray(similarity, dtype=float)
        if similarity.ndim != 2 or similarity.shape[0] < 1:
            raise InvalidInstance("similarity must be a non-empty 2d matrix")
        super().__init__(similarity.shape[1])
        if not np.all(np.isfinite(similarity)) or np.any(similarity < 0):
            raise InvalidInstance("similarity entries must be finite and non-negative")
        self._similarity = similarity
        # items by rows, so each item's gain sums one contiguous row exactly
        # as _marginal_ids sums its column copy
        self._by_item = np.ascontiguousarray(similarity.T)
        self._order = np.argsort(-similarity, axis=1, kind="stable")
        self._sorted = np.take_along_axis(similarity, self._order, axis=1)

    def _evaluate_ids(self, ids: np.ndarray) -> float:
        if ids.size == 0:
            return 0.0
        return float(self._similarity[:, ids].max(axis=1).sum())

    def _current(self, ids: np.ndarray) -> np.ndarray:
        if ids.size == 0:
            return np.zeros(self._similarity.shape[0])
        return self._similarity[:, ids].max(axis=1)

    def _marginal_ids(self, item: int, ids: np.ndarray) -> float:
        return float(np.maximum(self._similarity[:, item] - self._current(ids), 0.0).sum())

    def _marginals_ids(self, ids: np.ndarray) -> np.ndarray:
        return np.maximum(self._by_item - self._current(ids), 0.0).sum(axis=1)

    def _row_terms(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row, in descending similarity order: y_(k), prod_{j<k} (1 - y_(j)), and the terms."""
        ys = y[self._order]
        before = np.ones_like(ys)
        before[:, 1:] = np.cumprod(1.0 - ys[:, :-1], axis=1)
        return ys, before, self._sorted * ys * before

    def _closed_form_extension(self, y: np.ndarray) -> float:
        # rows first, then over rows, as in _evaluate_ids: exact at 0/1 points
        return float(self._row_terms(y)[2].sum(axis=1).sum())

    def _closed_form_gradient(self, y: np.ndarray) -> np.ndarray:
        # raising y_(p) to one makes s_(p) the row's value whenever no item
        # above p is drawn, which replaces term p and every term below it
        ys, before, terms = self._row_terms(y)
        gains = self._sorted * before * (1.0 - ys)
        gains[:, :-1] -= np.cumsum(terms[:, :0:-1], axis=1)[:, ::-1]
        return np.bincount(self._order.ravel(), weights=gains.ravel(), minlength=self._n)

    def _evaluate_selection_matrix(self, selections: np.ndarray) -> np.ndarray:
        out = np.empty(selections.shape[0])
        for start in range(0, selections.shape[0], _BATCH_CHUNK):
            block = selections[start : start + _BATCH_CHUNK]
            masked = np.where(block[:, None, :], self._similarity[None, :, :], 0.0)
            out[start : start + block.shape[0]] = masked.max(axis=2).sum(axis=1)
        return out

    def to_spec(self) -> dict:
        return {
            "type": "facility_location",
            "similarity": [[float(v) for v in row] for row in self._similarity],
        }


def oracle_from_spec(
    spec: Mapping,
    item_count: int,
    item_names: Sequence[str] | None = None,
) -> ObjectiveOracle:
    """Build an oracle from the JSON descriptor stored in instance files."""
    if not isinstance(spec, Mapping):
        raise ParseError("objective: expected an object")
    kind = spec.get("type")
    if kind == "modular":
        weights = spec.get("weights")
        if not isinstance(weights, list) or len(weights) != item_count:
            raise ParseError("objective.weights: expected one number per item")
        if not all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights):
            raise ParseError("objective.weights: expected numbers")
        return ModularObjective([float(w) for w in weights])
    if kind == "facility_location":
        rows = spec.get("similarity")
        if not isinstance(rows, list) or not rows:
            raise ParseError("objective.similarity: expected a non-empty matrix")
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != item_count:
                raise ParseError(f"objective.similarity[{r}]: expected {item_count} numbers")
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in row):
                raise ParseError(f"objective.similarity[{r}]: expected numbers")
        return FacilityLocationObjective(np.asarray(rows, dtype=float))
    if kind == "coverage":
        elements = spec.get("elements")
        covers = spec.get("covers")
        if not isinstance(elements, Mapping) or not isinstance(covers, Mapping):
            raise ParseError("objective: coverage needs 'elements' and 'covers' objects")
        names = sorted(elements)
        weights = []
        for name in names:
            w = elements[name]
            if not isinstance(w, (int, float)) or isinstance(w, bool):
                raise ParseError(f"objective.elements.{name}: expected a number")
            weights.append(float(w))
        element_index = {name: u for u, name in enumerate(names)}
        incidence = np.zeros((len(names), item_count), dtype=bool)
        name_to_id = {}
        if item_names is not None:
            name_to_id = {name: i for i, name in enumerate(item_names)}
        for key, elems in covers.items():
            item = _resolve_item_key(key, item_count, name_to_id)
            if not isinstance(elems, list):
                raise ParseError(f"objective.covers.{key}: expected a list of element names")
            for name in elems:
                if name not in element_index:
                    raise ParseError(f"objective.covers.{key}: unknown element {name!r}")
                incidence[element_index[name], item] = True
        return CoverageObjective(item_count, weights, incidence, names)
    raise ParseError(f"objective.type: unknown objective family {kind!r}")


def _resolve_item_key(key, item_count: int, name_to_id: Mapping[str, int]) -> int:
    if isinstance(key, str) and key in name_to_id:
        return name_to_id[key]
    try:
        item = int(key)
    except (TypeError, ValueError):
        raise ParseError(f"objective.covers: unknown item key {key!r}") from None
    if not 0 <= item < item_count:
        raise ParseError(f"objective.covers: item id {item} out of range")
    return item
