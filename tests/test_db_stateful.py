"""Stateful property test: ShapeDatabase vs a plain-dict oracle through
insert/delete/query churn (features precomputed to keep steps fast)."""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.db import ShapeDatabase, ShapeRecord
from repro.search import SearchEngine

DIM = 3
coord = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
vector = st.tuples(*([coord] * DIM))
group_name = st.sampled_from(["a", "b", "c", None])


class ShapeDatabaseMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = ShapeDatabase(pipeline=None)
        self.oracle = {}  # id -> (vector, group)

    @rule(vec=vector, group=group_name)
    def insert(self, vec, group):
        record = ShapeRecord(
            shape_id=0,
            name="s",
            group=group,
            features={"f": np.asarray(vec, dtype=np.float64)},
        )
        new_id = self.db.insert_record(record)
        assert new_id not in self.oracle
        # The database canonicalizes stored vectors to float32; the
        # oracle must model the same rounding to predict distances.
        self.oracle[new_id] = (np.asarray(vec, dtype=np.float32), group)

    @precondition(lambda self: self.oracle)
    @rule(data=st.data())
    def delete(self, data):
        victim = data.draw(st.sampled_from(sorted(self.oracle)))
        self.db.delete(victim)
        del self.oracle[victim]

    @precondition(lambda self: self.oracle)
    @rule(q=vector, k=st.integers(1, 5))
    def knn_matches_oracle(self, q, k):
        engine = SearchEngine(self.db, weighting="uniform")
        got = [
            (hit.shape_id, hit.distance)
            for hit in engine.search_knn(np.asarray(q), "f", k=k)
        ]
        want = sorted(
            (
                (float(np.linalg.norm(vec - np.asarray(q))), shape_id)
                for shape_id, (vec, _) in self.oracle.items()
            )
        )[:k]
        assert np.allclose(
            sorted(d for _, d in got), [d for d, _ in want]
        )

    @precondition(lambda self: self.oracle)
    @rule()
    def classification_map_matches(self):
        cmap = self.db.classification_map()
        expected = {}
        for shape_id, (_, group) in self.oracle.items():
            if group is not None:
                expected.setdefault(group, []).append(shape_id)
        assert {g: sorted(v) for g, v in cmap.items()} == {
            g: sorted(v) for g, v in expected.items()
        }

    @invariant()
    def sizes_agree(self):
        assert len(self.db) == len(self.oracle)
        assert self.db.ids() == sorted(self.oracle)


TestShapeDatabaseStateful = ShapeDatabaseMachine.TestCase
TestShapeDatabaseStateful.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
