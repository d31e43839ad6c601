"""Stream summarization and selectivity estimation (paper section 4.3).

Three statistic families describe the stream's retention window -- degree
distribution, vertex/edge type distribution and the multi-relational triad
census.  The query planner reads them through the
:class:`SelectivityEstimator`, from a :class:`StoreStatistics` view that
counts only what the estimator asks of the window store, or from a
materialised :class:`GraphSummary`.
"""

from .degree import DegreeDistribution
from .labels import EdgeSignature, LabelDistribution, SignatureDistribution
from .plan_cost import plan_cost
from .plan_monitor import PlanMonitor
from .selectivity import PlanningStatistics, SelectivityEstimator
from .store_stats import StoreStatistics
from .summarizer import GraphSummary, StreamSummarizer
from .triads import TriadCensus, TriadKey, wedge_key_for_query

__all__ = [
    "DegreeDistribution",
    "EdgeSignature",
    "GraphSummary",
    "LabelDistribution",
    "PlanMonitor",
    "PlanningStatistics",
    "SelectivityEstimator",
    "SignatureDistribution",
    "StoreStatistics",
    "StreamSummarizer",
    "TriadCensus",
    "TriadKey",
    "plan_cost",
    "wedge_key_for_query",
]
