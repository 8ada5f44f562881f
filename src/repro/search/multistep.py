"""Multi-step search strategy (Section 4.2 of the paper).

Instead of one-shot retrieval under a single feature vector, the user
retrieves a candidate pool with one feature vector and *filters* (reranks)
it with another, presenting only the top of the filtered list.  The
paper's experiment uses a pool of thirty shapes retrieved with moment
invariants, reranked by geometric parameters, with ten presented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..obs import get_registry
from ..robust.deadline import Deadline
from .engine import Query, SearchEngine, SearchResult

#: The configuration used for the paper's Figures 13-15.
PAPER_POOL_SIZE = 30
PAPER_PRESENT = 10


@dataclass
class MultiStepPlan:
    """A multi-step query: pool retrieval followed by filter steps.

    ``steps`` is an ordered list of (feature_name, keep) pairs: the first
    step scans its feature space and keeps ``keep`` shapes; every later step
    reranks the surviving candidates under its feature vector and truncates
    to its ``keep``.
    """

    steps: List[Tuple[str, int]]

    def __post_init__(self) -> None:
        if len(self.steps) < 2:
            raise ValueError("a multi-step plan needs at least two steps")
        for name, keep in self.steps:
            if keep < 1:
                raise ValueError(f"step {name!r} must keep >= 1 shapes")
        keeps = [keep for _, keep in self.steps]
        if any(a < b for a, b in zip(keeps, keeps[1:])):
            raise ValueError("steps must keep non-increasing candidate counts")


def multi_step_search(
    engine: SearchEngine,
    query: Query,
    plan: Optional[MultiStepPlan] = None,
    exclude_query: bool = True,
    deadline: Optional[Deadline] = None,
) -> List[SearchResult]:
    """Run a multi-step query.

    The default plan is the paper's: pool of 30 under moment invariants,
    reranked by geometric parameters, top 10 presented.  A ``deadline``
    propagates into the pool retrieval and every filter step, so a
    timed-out query aborts between steps rather than finishing the plan.
    """
    if plan is None:
        plan = MultiStepPlan(
            steps=[
                ("moment_invariants", PAPER_POOL_SIZE),
                ("geometric_params", PAPER_PRESENT),
            ]
        )
    metrics = get_registry()
    with metrics.timed("search.multistep"):
        metrics.inc("search.multistep.steps", len(plan.steps))
        first_name, first_keep = plan.steps[0]
        results = engine.search_knn(
            query,
            first_name,
            k=first_keep,
            exclude_query=exclude_query,
            deadline=deadline,
        )
        for feature_name, keep in plan.steps[1:]:
            candidate_ids = [r.shape_id for r in results]
            results = engine.rerank(
                candidate_ids,
                query,
                feature_name,
                exclude_query=exclude_query,
                deadline=deadline,
            )[:keep]
    return results


def one_shot_search(
    engine: SearchEngine,
    query: Query,
    feature_name: str,
    k: int = PAPER_PRESENT,
    exclude_query: bool = True,
) -> List[SearchResult]:
    """The baseline one-shot retrieval the multi-step strategy is compared
    against (same presentation budget k)."""
    return engine.search_knn(query, feature_name, k=k, exclude_query=exclude_query)
