"""Translation-activity statistics.

Every figure in the paper's evaluation is a projection of the counters
collected here: normalized performance needs stall accounting, Figure 12(b)
needs walk-invoked memory references, Figure 13 needs TPreg tag hits, and
the headline 18.8×/16.3× claims need both.  Counters accumulate for the
lifetime of an MMU; :func:`snapshot`/:func:`delta` support per-phase
attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class TranslationStats:
    """Counters owned by one MMU instance."""

    #: Translation requests received from the DMA engine.
    requests: int = 0
    #: Requests satisfied by the TLB.
    tlb_hits: int = 0
    #: Requests absorbed by a PRMB (no walk issued).
    merges: int = 0
    #: Requests that had to launch a redundant walk (same VPN already in
    #: flight but no merge capacity) — the energy wastage of Figure 12.
    redundant_walk_requests: int = 0
    #: Times the DMA was blocked because walkers and merge slots were full.
    stall_events: int = 0
    #: Total cycles the DMA issue port spent blocked.
    stall_cycles: float = 0.0
    #: Page faults taken (demand-paging runs only).
    faults: int = 0

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict copy of all counters."""
        return {
            "requests": self.requests,
            "tlb_hits": self.tlb_hits,
            "merges": self.merges,
            "redundant_walk_requests": self.redundant_walk_requests,
            "stall_events": self.stall_events,
            "stall_cycles": self.stall_cycles,
            "faults": self.faults,
        }


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Per-phase counter difference (``after`` minus ``before``)."""
    return {key: after[key] - before.get(key, 0) for key in after}


@dataclass
class RunSummary:
    """Flattened view across MMU, walker pool, TLB and TPreg counters.

    Produced by :meth:`repro.core.mmu.MMU.summary`; consumed by the energy
    model and the experiment harness.
    """

    requests: int
    tlb_hits: int
    tlb_hit_rate: float
    merges: int
    walks: int
    redundant_walks: int
    walk_level_accesses: int
    walk_levels_skipped: int
    stall_events: int
    stall_cycles: float
    faults: int
    tpreg_l4_rate: float
    tpreg_l3_rate: float
    tpreg_l2_rate: float
    #: Speculative walks issued / consumed by the optional prefetcher.
    prefetches: int = 0
    prefetch_accuracy: float = 0.0

    @property
    def walk_rate(self) -> float:
        """Walks per translation request."""
        return self.walks / self.requests if self.requests else 0.0

    @property
    def accesses_per_request(self) -> float:
        """Walk-invoked memory references per translation request —
        the quantity NeuMMU reduces 18.8× vs the baseline IOMMU."""
        return self.walk_level_accesses / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, float]:
        """All fields as a plain dict (for CSV/JSON emission)."""
        return {
            "requests": self.requests,
            "tlb_hits": self.tlb_hits,
            "tlb_hit_rate": self.tlb_hit_rate,
            "merges": self.merges,
            "walks": self.walks,
            "redundant_walks": self.redundant_walks,
            "walk_level_accesses": self.walk_level_accesses,
            "walk_levels_skipped": self.walk_levels_skipped,
            "stall_events": self.stall_events,
            "stall_cycles": self.stall_cycles,
            "faults": self.faults,
            "tpreg_l4_rate": self.tpreg_l4_rate,
            "tpreg_l3_rate": self.tpreg_l3_rate,
            "tpreg_l2_rate": self.tpreg_l2_rate,
            "prefetches": self.prefetches,
            "prefetch_accuracy": self.prefetch_accuracy,
        }
