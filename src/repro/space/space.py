"""The hyper-parameter design space ``X`` (paper Section 3).

:class:`SearchSpace` bundles an ordered list of :class:`~repro.space.params.
Parameter` objects and provides the operations every search method in the
framework needs:

* uniform sampling of configurations (``Rand``, initial BO design, offline
  profiling campaigns of Section 3.3),
* a bijection between configuration dictionaries and points in the unit
  hyper-cube (the representation used by the Gaussian process and by the
  random-walk proposal distribution),
* extraction of the *structural* sub-vector ``z`` that feeds the power and
  memory models of Equations 1-2.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .params import ContinuousParameter, IntegerParameter, Parameter, param_from_dict

__all__ = ["SearchSpace", "Configuration"]

#: A configuration is a plain mapping from parameter name to native value.
Configuration = dict

#: Smallest ``n`` that :meth:`SearchSpace.sample_many` draws as arrays.  The
#: array path costs 22-50 us per call at small ``n``; the scalar loop
#: 13-29 us per draw on the mnist space and 40-48 us on cifar10/imagenet
#: (2-core x86-64 host), so arrays win on every preset from 3 draws on.
_ARRAY_MIN_DRAWS = 3


@lru_cache(maxsize=32)
def _word_layout(kinds: tuple[bool, ...], n: int, buffered: bool):
    """Where ``n`` scalar draws of a space read numpy's ``PCG64`` stream.

    ``kinds[j]`` is true for an integer axis and false for a continuous
    one.  ``Generator.integers`` over a range below 2**32 takes one 32-bit
    half of a 64-bit word: a fresh word's low half, whose high half is kept
    for the next such call (``has_uint32``/``uinteger`` in the state).
    ``Generator.uniform`` takes a fresh 64-bit word and leaves that buffer
    alone.  Word 0 stands for the incoming buffered half (``buffered``),
    held in its high half; word ``w >= 1`` is the ``w``-th raw word.

    Returns ``(n_words, int_half, float_word, last_half)``: the number of
    raw words consumed, the ``(n, k_int)`` index of every integer draw's
    half in the words' little-endian ``uint32`` view, the ``(n, k_float)``
    word of every continuous draw, and the half left buffered afterwards.
    Keyed by the kinds pattern, not the space, so the cache stays small.
    """
    is_int = np.tile(np.array(kinds, dtype=bool), n)
    ordinal = np.cumsum(is_int) - is_int
    fresh = ~is_int | ((ordinal + buffered) % 2 == 0)
    word = np.cumsum(fresh)
    int_word, int_fresh = word[is_int], fresh[is_int]
    # A buffered draw reads the high half of the previous integer draw's
    # word (word 0, the incoming buffer, for the first one).
    previous = np.concatenate(([0], int_word[:-1]))
    int_half = np.where(int_fresh, 2 * int_word, 2 * previous + 1)
    taken = int_word[int_fresh]
    k_int = sum(kinds)
    float_word = word[~is_int]
    # Cached and shared by every caller: read-only.
    int_half.setflags(write=False)
    float_word.setflags(write=False)
    return (
        int(word[-1]),
        int_half.reshape(n, k_int),
        float_word.reshape(n, len(kinds) - k_int),
        2 * int(taken[-1]) + 1 if taken.size else 1,
    )


class _ArrayDraw:
    """``n`` scalar draws of a space, computed from one ``random_raw`` call.

    Reproduces ``[space.sample(rng) for _ in range(n)]`` bit for bit on a
    ``PCG64`` generator: the same values, the same Python types and the
    same generator state afterwards.  ``integers`` uses Lemire's
    multiply-shift, ``low + (u32 * r >> 32)``, and redraws when
    ``u32 * r mod 2**32 < (2**32 - r) mod r``; a redraw shifts every later
    word, so :meth:`draw` returns ``None`` (state untouched) and the caller
    runs the scalar loop.  ``uniform`` is ``lo + (hi - lo) * (w >> 11) *
    2**-53``, elementwise the same two roundings as numpy's C code; log
    axes then take ``math.exp`` per value, since ``np.exp`` may differ in
    the last bit.
    """

    def __init__(self, params: Sequence[Parameter]):
        self.kinds = tuple(type(p) is IntegerParameter for p in params)
        self.k_int = sum(self.kinds)
        ints = [p for p in params if type(p) is IntegerParameter]
        floats = [p for p in params if type(p) is ContinuousParameter]
        ranges = [p.n_values for p in ints]
        self.r = np.array(ranges, dtype=np.uint64)
        self.threshold = np.array([2**32 % r for r in ranges], dtype=np.uint32)
        self.low = np.array([p.low for p in ints], dtype=np.int64)
        bounds = [(p._fwd(p.low), p._fwd(p.high)) for p in floats]
        self.lo = np.array([lo for lo, _ in bounds], dtype=float)
        # ``scale * ((w >> 11) * 2**-53)`` and ``(scale * 2**-53) * (w >> 11)``
        # round the same product once: ``supports`` checks that the scaling
        # by a power of two is exact.
        self.scale_53 = np.array([(hi - lo) * 2.0**-53 for lo, hi in bounds])
        self.log = [p.log for p in floats]
        self.names = [p.name for p in params]

    @staticmethod
    def supports(params: Sequence[Parameter]) -> bool:
        """Whether every axis draws exactly as :meth:`draw` assumes."""
        if sys.byteorder != "little":
            return False
        for p in params:
            if type(p) is IntegerParameter:
                # One Lemire half: 2 <= r < 2**32 (r = 1 draws nothing,
                # r = 2**32 takes the half raw), and int64-safe bounds.
                if not (2 <= p.n_values < 2**32 and -(2**63) <= p.low
                        and p.high < 2**63 - 1):
                    return False
            elif type(p) is ContinuousParameter:
                scale = p._fwd(p.high) - p._fwd(p.low)
                if not (math.isfinite(scale) and scale * 2.0**-53 * 2.0**53 == scale):
                    return False
            else:
                return False
        return True

    def draw(self, n: int, bitgen: np.random.PCG64) -> list[Configuration] | None:
        """``n`` configurations, or ``None`` after a Lemire redraw."""
        before = bitgen.state
        n_words, int_half, float_word, last = _word_layout(
            self.kinds, n, bool(before["has_uint32"])
        )
        words = np.empty(n_words + 1, dtype=np.uint64)
        words[0] = before["uinteger"] << 32
        words[1:] = bitgen.random_raw(n_words)
        halves = words.view(np.uint32)
        product = (halves[int_half] * self.r).view(np.uint32).reshape(n, self.k_int, 2)
        if np.count_nonzero(product[..., 0] < self.threshold):
            bitgen.state = before
            return None
        ints = (product[..., 1] + self.low).T.tolist()
        unit = (words[float_word] >> 11).astype(float)
        floats = (self.lo + self.scale_53 * unit).T.tolist()
        after = bitgen.state
        after["has_uint32"] = (n * self.k_int + before["has_uint32"]) % 2
        after["uinteger"] = int(halves[last])
        bitgen.state = after
        floats = [
            list(map(math.exp, col)) if log else col
            for col, log in zip(floats, self.log)
        ]
        ints, floats = iter(ints), iter(floats)
        columns = [next(ints) if is_int else next(floats) for is_int in self.kinds]
        return [dict(zip(self.names, row)) for row in zip(*columns)]


class _ColumnEncode:
    """``SearchSpace.encode`` of a pool of configurations, by columns.

    Reproduces ``np.vstack([space.encode(c) for c in configs])`` bit for
    bit when every configuration is a ``dict`` with exactly the space's
    keys and every value is an in-range ``int`` on an integer axis or
    ``float`` on a continuous one.  For anything else :meth:`encode`
    returns ``None`` and the caller runs the row loop, which raises the
    errors.  ``(v - lo) / span`` rounds the same subtraction and division
    in numpy as in ``Parameter.to_unit``; log axes take ``math.log`` per
    value, since ``np.log`` may differ in the last bit.
    """

    def __init__(self, params: Sequence[Parameter]):
        # Per axis: (getter, native type, low, high, lo, span, log).
        self.axes = []
        for p in params:
            low, high = float(p.low), float(p.high)
            if type(p) is IntegerParameter:
                axis = (int, low, high, low, float(p.high - p.low), False)
            else:
                lo, hi = p._fwd(p.low), p._fwd(p.high)
                axis = (float, low, high, lo, hi - lo, p.log)
            self.axes.append((itemgetter(p.name), *axis))

    @staticmethod
    def supports(params: Sequence[Parameter]) -> bool:
        """Whether every axis converts and compares exactly as :meth:`encode`
        assumes: the two built-in types, with bounds whose ``float`` is
        exact (integer axes strictly within +-2**53) and, on continuous
        axes, a nonzero span (``to_unit`` would divide by zero)."""
        for p in params:
            if type(p) is IntegerParameter:
                if not (-(2**53) < p.low and p.high < 2**53):
                    return False
            elif type(p) is ContinuousParameter:
                if not (
                    float(p.low) == p.low
                    and float(p.high) == p.high
                    and p._fwd(p.high) != p._fwd(p.low)
                ):
                    return False
            else:
                return False
        return True

    def encode(self, configs: list) -> np.ndarray | None:
        """The ``(n, d)`` encoding of ``configs``, or ``None`` (row loop)."""
        d = len(self.axes)
        if set(map(type, configs)) != {dict} or set(map(len, configs)) != {d}:
            return None
        X = np.empty((len(configs), d))
        for j, (get, kind, low, high, lo, span, log) in enumerate(self.axes):
            try:
                column = list(map(get, configs))
            except KeyError:
                return None
            if set(map(type, column)) != {kind}:
                return None
            try:
                values = np.array(column, dtype=float)
            except OverflowError:
                return None
            # The range check of ``contains``, exactly: an int in range
            # converts exactly, one outside rounds to a float outside (the
            # bounds are below 2**53 in magnitude), and NaN compares false.
            if not np.all((values >= low) & (values <= high)):
                return None
            if log:
                values = np.array(list(map(math.log, column)))
            # ``IntegerParameter.to_unit`` maps a one-value range to 0.5.
            X[:, j] = (values - lo) / span if span else 0.5
        return X


class SearchSpace:
    """An ordered collection of named hyper-parameters."""

    def __init__(self, parameters: Iterable[Parameter]):
        self._params: list[Parameter] = list(parameters)
        if not self._params:
            raise ValueError("search space needs at least one parameter")
        names = [p.name for p in self._params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        self._by_name = {p.name: p for p in self._params}
        self._array_draw = (
            _ArrayDraw(self._params) if _ArrayDraw.supports(self._params) else None
        )
        self._column_encode = (
            _ColumnEncode(self._params)
            if _ColumnEncode.supports(self._params)
            else None
        )

    # -- basic introspection -------------------------------------------------

    @property
    def parameters(self) -> tuple[Parameter, ...]:
        """The parameters, in definition order."""
        return tuple(self._params)

    @property
    def names(self) -> tuple[str, ...]:
        """Parameter names, in definition order."""
        return tuple(p.name for p in self._params)

    @property
    def dimension(self) -> int:
        """Number of axes in the space (``len(x)``)."""
        return len(self._params)

    @property
    def structural_names(self) -> tuple[str, ...]:
        """Names of the structural parameters forming ``z`` (Section 3.3)."""
        return tuple(p.name for p in self._params if p.structural)

    @property
    def structural_dimension(self) -> int:
        """``J``, the length of the structural vector ``z``."""
        return len(self.structural_names)

    def __len__(self) -> int:
        return self.dimension

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[name]

    def __repr__(self) -> str:
        inner = ", ".join(p.name for p in self._params)
        return f"SearchSpace({inner})"

    # -- validation ----------------------------------------------------------

    def _check_keys(self, config: Mapping) -> None:
        """Raise ``ValueError`` unless ``config`` has exactly the space's keys."""
        missing = set(self.names) - set(config)
        if missing:
            raise ValueError(f"configuration missing parameters {sorted(missing)}")
        extra = set(config) - set(self.names)
        if extra:
            raise ValueError(f"configuration has unknown parameters {sorted(extra)}")

    def validate(self, config: Mapping) -> None:
        """Raise ``ValueError`` unless ``config`` is a complete, in-range point."""
        self._check_keys(config)
        for param in self._params:
            param.validate(config[param.name])

    def contains(self, config: Mapping) -> bool:
        """Whether ``config`` is a complete, in-range point of the space."""
        try:
            self.validate(config)
        except ValueError:
            return False
        return True

    def coerce(self, config: Mapping) -> Configuration:
        """Validate ``config`` and restore every value's native type.

        JSON transports (the run journal, the study service's HTTP wire)
        blur ``3`` and ``3.0``; coercion maps each value back through its
        parameter's declared type (int stays int, floats stay float) and
        orders keys in definition order, so the canonical configuration
        hash of a coerced round-tripped config never drifts from the
        original's.
        """
        self.validate(config)
        return {p.name: p.coerce(config[p.name]) for p in self._params}

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready description (round-trips through :meth:`from_dict`)."""
        return {"parameters": [p.to_dict() for p in self._params]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SearchSpace":
        """Rebuild a space from its :meth:`to_dict` form."""
        try:
            params = data["parameters"]
        except KeyError:
            raise ValueError("space description missing 'parameters'") from None
        return cls(param_from_dict(p) for p in params)

    # -- sampling ------------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> Configuration:
        """Draw one configuration uniformly at random."""
        return {p.name: p.sample(rng) for p in self._params}

    def sample_many(self, n: int, rng: np.random.Generator) -> list[Configuration]:
        """Draw ``n`` independent uniform configurations.

        Always equal to ``[self.sample(rng) for _ in range(n)]``, generator
        state afterwards included.  On numpy's ``PCG64`` the draws are
        computed as arrays (``_ArrayDraw``); other bit generators, other
        parameter types, small ``n`` and Lemire redraws run that loop.
        """
        if (
            n >= _ARRAY_MIN_DRAWS
            and self._array_draw is not None
            and type(rng) is np.random.Generator
            and type(rng.bit_generator) is np.random.PCG64
        ):
            configs = self._array_draw.draw(n, rng.bit_generator)
            if configs is not None:
                return configs
        return [self.sample(rng) for _ in range(n)]

    def sample_lhs(self, n: int, rng: np.random.Generator) -> list[Configuration]:
        """Draw ``n`` configurations by Latin-hypercube sampling.

        Each axis is split into ``n`` equal unit-interval strata with one
        point per stratum, shuffled independently per axis — better
        space-filling than i.i.d. sampling for the offline profiling
        campaigns the predictive models are trained on.
        """
        if n < 1:
            raise ValueError("need at least one sample")
        columns = []
        for _ in range(self.dimension):
            strata = (np.arange(n) + rng.uniform(size=n)) / n
            rng.shuffle(strata)
            columns.append(strata)
        grid = np.column_stack(columns)
        return [self.decode(row) for row in grid]

    # -- unit-cube encoding --------------------------------------------------

    def encode(self, config: Mapping) -> np.ndarray:
        """Map a configuration to a point in the unit hyper-cube.

        Raises the errors of :meth:`validate`: the key check here, each
        value's range check once, in its parameter's ``to_unit``.
        """
        self._check_keys(config)
        return np.array(
            [p.to_unit(config[p.name]) for p in self._params], dtype=float
        )

    def decode(self, u: Sequence[float]) -> Configuration:
        """Map a unit-cube point back to a configuration.

        Coordinates outside ``[0, 1]`` are clipped, so any real vector of the
        right length decodes to a valid configuration.
        """
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dimension,):
            raise ValueError(
                f"expected a vector of length {self.dimension}, got shape {u.shape}"
            )
        return {p.name: p.from_unit(ui) for p, ui in zip(self._params, u)}

    def encode_many(self, configs: Iterable[Mapping]) -> np.ndarray:
        """Stack the encodings of several configurations into an ``(n, d)`` array.

        Always equal to ``np.vstack([self.encode(c) for c in configs])``,
        errors included.  Pools of plain, in-range configurations (what
        ``sample_many`` and ``neighbors`` return) are encoded by columns
        (``_ColumnEncode``); anything else runs that loop.
        """
        configs = list(configs)
        if not configs:
            return np.empty((0, self.dimension))
        if self._column_encode is not None:
            X = self._column_encode.encode(configs)
            if X is not None:
                return X
        return np.vstack([self.encode(c) for c in configs])

    # -- structural sub-vector -----------------------------------------------

    def structural_vector(self, config: Mapping) -> np.ndarray:
        """Extract ``z``, the structural hyper-parameters of ``config``.

        This is the input to the power and memory models (Equations 1-2);
        solver parameters such as the learning rate are dropped because they
        do not affect the compiled network's power or memory (Section 3.3).
        """
        self.validate(config)
        return np.array(
            [float(config[name]) for name in self.structural_names], dtype=float
        )

    def structural_matrix(
        self, configs: Iterable[Mapping], validate: bool = True
    ) -> np.ndarray:
        """Stack structural vectors into an ``(n, J)`` design matrix.

        ``validate=False`` skips the per-config range check — safe (and
        much faster) when the configurations were produced by this space's
        own ``sample``/``neighbor``/grid machinery, which is how the batch
        screening path calls it.
        """
        names = self.structural_names
        if validate:
            rows = [self.structural_vector(c) for c in configs]
        else:
            rows = [
                [float(c[name]) for name in names] for c in configs
            ]
        if not rows:
            return np.empty((0, self.structural_dimension))
        return np.asarray(rows, dtype=float)

    # -- random-walk neighbourhood (Section 3.5, Rand-Walk) -------------------

    def neighbors(
        self,
        config: Mapping,
        sigma: float,
        n: int,
        rng: np.random.Generator,
    ) -> list[Configuration]:
        """Draw ``n`` points ``x' ~ N(x, sigma^2 I)`` in unit-cube coordinates.

        This implements the Rand-Walk proposal: a Gaussian "neighbourhood"
        around the incumbent ``x+`` whose size is controlled by ``sigma``
        (the paper's ``sigma_0``).  The incumbent is encoded once and the
        ``(n, d)`` normal draws come from one call, which consumes the
        stream exactly as ``n`` calls of ``size=d`` would.
        """
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        center = self.encode(config)
        steps = rng.normal(0.0, sigma, size=(n, self.dimension))
        return [self.decode(row) for row in center + steps]

    def neighbor(
        self,
        config: Mapping,
        sigma: float,
        rng: np.random.Generator,
    ) -> Configuration:
        """One :meth:`neighbors` draw."""
        return self.neighbors(config, sigma, 1, rng)[0]
