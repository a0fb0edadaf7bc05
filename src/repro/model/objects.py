"""Spatial web objects and the dataset container.

Section III-A of the paper models the database ``D`` as a set of
objects ``o = (o.loc, o.doc)`` where ``o.loc`` is a point and ``o.doc``
a set of keywords.  This module provides:

* :class:`SpatialObject` — one immutable object;
* :class:`Dataset` — the database, with the derived statistics the
  algorithms need (document frequencies for the particularity weight of
  Eqn 7, the normalisation diagonal for spatial distance, fast id
  lookup).

Keywords are interned integers (see :mod:`repro.data.vocabulary`); all
hot-path set algebra therefore runs on small ``frozenset[int]`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import DatasetError
from .geometry import Point, euclidean, space_diagonal

__all__ = ["SpatialObject", "Dataset"]

KeywordSet = FrozenSet[int]


@dataclass(frozen=True)
class SpatialObject:
    """A geo-tagged web object: an id, a location, and a document.

    ``oid`` values must be unique within a dataset; algorithms refer to
    objects by id everywhere (results, missing-object sets, dominator
    caches) so equality/hash on the id alone would be ambiguous across
    datasets — we keep full value semantics from the dataclass.
    """

    oid: int
    loc: Point
    doc: KeywordSet

    def __post_init__(self) -> None:
        if not isinstance(self.doc, frozenset):
            # Accept any iterable of ints at construction for
            # ergonomics, but store a frozenset for hashability.
            object.__setattr__(self, "doc", frozenset(self.doc))
        if len(self.loc) != 2:
            raise DatasetError(f"object {self.oid}: location must be a 2-tuple")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        words = ",".join(str(t) for t in sorted(self.doc))
        return f"SpatialObject(oid={self.oid}, loc={self.loc}, doc={{{words}}})"


class Dataset:
    """The spatial-object database ``D`` plus derived statistics.

    The dataset is immutable after construction.  Construction computes:

    * ``diagonal`` — the maximum possible distance between two points,
      used to normalise ``SDist`` in Eqn 1;
    * ``doc_frequency`` — ``n_t`` of Eqn 7, the number of objects whose
      document contains each keyword;
    * an id -> object map for O(1) lookup.

    Parameters
    ----------
    objects:
        The objects of the database.  Ids must be unique.
    diagonal:
        Optional override for the normalisation diagonal.  Synthetic
        generators pass the diagonal of the *generation space* so that
        datasets of different cardinalities drawn from the same space
        normalise identically (needed for the Fig 13 scalability sweep).
    """

    def __init__(
        self,
        objects: Iterable[SpatialObject],
        *,
        diagonal: Optional[float] = None,
        name: str = "dataset",
    ) -> None:
        self._objects: List[SpatialObject] = list(objects)
        self.name = name
        self._by_id: Dict[int, SpatialObject] = {}
        for obj in self._objects:
            if obj.oid in self._by_id:
                raise DatasetError(f"duplicate object id {obj.oid}")
            self._by_id[obj.oid] = obj
        if diagonal is not None:
            if diagonal <= 0:
                raise DatasetError("diagonal must be positive")
            self.diagonal = float(diagonal)
        else:
            self.diagonal = space_diagonal([o.loc for o in self._objects])
        self._doc_frequency: Dict[int, int] = {}
        for obj in self._objects:
            for term in obj.doc:
                self._doc_frequency[term] = self._doc_frequency.get(term, 0) + 1

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[SpatialObject]:
        return iter(self._objects)

    def __contains__(self, oid: object) -> bool:
        return oid in self._by_id

    @property
    def objects(self) -> Sequence[SpatialObject]:
        """The objects in insertion order (read-only view)."""
        return tuple(self._objects)

    def get(self, oid: int) -> SpatialObject:
        """Return the object with id ``oid``.

        Raises :class:`DatasetError` when the id is unknown, which is
        the error surface a why-not question with a bogus missing
        object hits.
        """
        try:
            return self._by_id[oid]
        except KeyError:
            raise DatasetError(f"unknown object id {oid}") from None

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def add(self, obj: SpatialObject) -> None:
        """Append one object (supports the indexes' dynamic insertion).

        The id must be new.  The normalisation diagonal stays fixed at
        its construction-time value — new objects are expected to come
        from the same space; a point outside the original extent would
        silently change every existing score if the diagonal moved.
        Derived structures built *from* this dataset (oracles, trees)
        do not observe the append automatically; the engine's
        ``insert`` keeps the indexes in sync, and oracles must be
        rebuilt.
        """
        if obj.oid in self._by_id:
            raise DatasetError(f"duplicate object id {obj.oid}")
        self._objects.append(obj)
        self._by_id[obj.oid] = obj
        for term in obj.doc:
            self._doc_frequency[term] = self._doc_frequency.get(term, 0) + 1

    def remove(self, oid: int) -> SpatialObject:
        """Remove one object by id and return it.

        Mirrors :meth:`add`; the diagonal stays fixed.  As with adds,
        derived structures (oracles, indexes) built earlier are
        snapshots — ``WhyNotEngine.remove`` keeps its indexes in sync.
        """
        obj = self._by_id.pop(oid, None)
        if obj is None:
            raise DatasetError(f"unknown object id {oid}")
        self._objects.remove(obj)
        for term in obj.doc:
            remaining = self._doc_frequency[term] - 1
            if remaining:
                self._doc_frequency[term] = remaining
            else:
                del self._doc_frequency[term]
        return obj

    # ------------------------------------------------------------------
    # derived statistics
    # ------------------------------------------------------------------
    @property
    def doc_frequency(self) -> Mapping[int, int]:
        """``n_t`` per keyword: the number of objects containing it."""
        return self._doc_frequency

    def frequency(self, term: int) -> int:
        """Document frequency of one keyword (0 when absent)."""
        return self._doc_frequency.get(term, 0)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct keywords across all documents."""
        return len(self._doc_frequency)

    def normalized_distance(self, a: Point, b: Point) -> float:
        """``SDist``: Euclidean distance over the dataset diagonal.

        The result is clamped to ``[0, 1]``; query locations outside
        the data bounding box would otherwise push scores negative and
        break the bound arithmetic of Theorems 1 and 2.
        """
        d = euclidean(a, b) / self.diagonal
        return d if d < 1.0 else 1.0

    def summary(self) -> Dict[str, object]:
        """Dataset statistics in the shape of the paper's Table II."""
        lengths = [len(o.doc) for o in self._objects]
        return {
            "name": self.name,
            "total_objects": len(self._objects),
            "total_distinct_words": self.vocabulary_size,
            "avg_doc_length": (sum(lengths) / len(lengths)) if lengths else 0.0,
            "diagonal": self.diagonal,
        }
