"""Auction mechanisms: the paper's two contributions plus baselines.

* :class:`~repro.mechanisms.offline_vcg.OfflineVCGMechanism` — Section IV:
  optimal winning-bid determination by maximum-weight bipartite matching +
  VCG payments.
* :class:`~repro.mechanisms.online_greedy.OnlineGreedyMechanism` —
  Section V: per-slot greedy allocation (Algorithm 1) + critical-value
  payments (Algorithm 2).
* :mod:`repro.mechanisms.baselines` — comparison mechanisms, including the
  untruthful per-slot second-price rule the paper dissects in Fig. 5.
"""

from repro.mechanisms.base import Mechanism
from repro.mechanisms.greedy_core import GreedyRun
from repro.mechanisms.offline_vcg import OfflineVCGMechanism, bid_index
from repro.mechanisms.online_greedy import OnlineGreedyMechanism
from repro.mechanisms.registry import (
    available_mechanisms,
    create_mechanism,
    register_mechanism,
)
from repro.mechanisms.streaming import StreamingGreedyEngine

__all__ = [
    "Mechanism",
    "OfflineVCGMechanism",
    "OnlineGreedyMechanism",
    "GreedyRun",
    "StreamingGreedyEngine",
    "bid_index",
    "available_mechanisms",
    "create_mechanism",
    "register_mechanism",
]
