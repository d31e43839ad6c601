"""Stream summarization and selectivity estimation (paper section 4.3).

Three statistic families describe the stream's retention window -- degree
distribution, vertex/edge type distribution and the multi-relational triad
census -- combined into a :class:`GraphSummary`, computed from the window
store when a plan is made, that the query planner uses through the
:class:`SelectivityEstimator`.
"""

from .degree import DegreeDistribution
from .labels import EdgeSignature, LabelDistribution, SignatureDistribution
from .plan_cost import plan_cost
from .plan_monitor import PlanMonitor
from .selectivity import SelectivityEstimator
from .summarizer import GraphSummary, StreamSummarizer
from .triads import TriadCensus, TriadKey, wedge_key_for_query

__all__ = [
    "DegreeDistribution",
    "EdgeSignature",
    "GraphSummary",
    "LabelDistribution",
    "PlanMonitor",
    "SelectivityEstimator",
    "SignatureDistribution",
    "StreamSummarizer",
    "TriadCensus",
    "TriadKey",
    "plan_cost",
    "wedge_key_for_query",
]
