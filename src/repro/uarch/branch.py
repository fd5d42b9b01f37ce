"""Branch prediction substrates for the two cores.

Rocket (Table IV): 512-entry 2-bit BHT + 28-entry BTB.  The frontend can
only redirect on a predicted-taken branch when the BTB knows the target,
so on a BTB miss the effective prediction is *not-taken* — this is what
makes the paper's ``brmiss`` chain (taken branches, BTB-thrashing) always
mispredict on Rocket while ``brmiss_inv`` always predicts correctly
(Rocket CS2, Fig. 7d).

BOOM (Table IV): TAGE + BTB.  The direction predictor's bimodal base
table initializes weakly-taken, and a predicted-taken *direct* branch
whose target misses in the BTB is recovered with a cheap decode-stage
resteer rather than an execute-stage flush.  The combination flips the
case study's outcome on BOOM (base chain ~0% Bad Speculation, inverted
chain slower — Fig. 7n), matching the paper's "the branch prediction
implementation is different" explanation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class PredictorStats:
    """Aggregate direction/target accuracy counters."""

    lookups: int = 0
    direction_mispredicts: int = 0
    target_mispredicts: int = 0

    @property
    def mispredicts(self) -> int:
        return self.direction_mispredicts + self.target_mispredicts

    @property
    def accuracy(self) -> float:
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups


@dataclass
class Prediction:
    """Outcome of one frontend prediction."""

    taken: bool
    target: Optional[int]        # None when the BTB has no target
    btb_hit: bool
    provider: str = "base"       # which structure supplied the direction


class BHT:
    """Direct-mapped table of 2-bit saturating counters."""

    def __init__(self, entries: int, init: int = 1) -> None:
        if entries & (entries - 1):
            raise ValueError("BHT entries must be a power of two")
        self.entries = entries
        self._table = [init] * entries

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._table[index]
        if taken:
            self._table[index] = min(3, counter + 1)
        else:
            self._table[index] = max(0, counter - 1)


class BTB:
    """Small fully-associative branch target buffer with LRU replacement.

    Entries live in one insertion-ordered dict (LRU first, MRU last), so
    lookup/insert/evict are O(1); the BOOM configs carry 512 entries, so
    the previous list-based recency scan was a per-prediction hot spot.
    """

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._targets: dict = {}             # pc -> target, LRU first

    def lookup(self, pc: int) -> Optional[int]:
        targets = self._targets
        target = targets.get(pc)
        if target is not None:
            del targets[pc]                  # re-insert as MRU
            targets[pc] = target
        return target

    def insert(self, pc: int, target: int) -> None:
        targets = self._targets
        if pc in targets:
            del targets[pc]
        elif len(targets) >= self.entries:
            del targets[next(iter(targets))]   # evict LRU
        targets[pc] = target


class ReturnAddressStack:
    """Classic RAS for call/return target prediction."""

    def __init__(self, depth: int = 8) -> None:
        self.depth = depth
        self._stack: List[int] = []

    def push(self, addr: int) -> None:
        if len(self._stack) >= self.depth:
            self._stack.pop(0)
        self._stack.append(addr)

    def pop(self) -> Optional[int]:
        return self._stack.pop() if self._stack else None

    def peek(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None


class RocketBranchPredictor:
    """BHT + BTB frontend predictor with a not-taken BTB-miss fallback."""

    def __init__(self, bht_entries: int = 512, btb_entries: int = 28) -> None:
        self.bht = BHT(bht_entries)
        self.btb = BTB(btb_entries)
        self.ras = ReturnAddressStack()
        self.stats = PredictorStats()

    def predict_branch(self, pc: int) -> Prediction:
        target = self.btb.lookup(pc)
        if target is None:
            # Without a target the frontend cannot redirect: the
            # effective prediction is fall-through.
            return Prediction(taken=False, target=None, btb_hit=False)
        return Prediction(taken=self.bht.predict(pc), target=target,
                          btb_hit=True)

    def resolve_branch(self, pc: int, taken: bool, target: int,
                       prediction: Prediction) -> bool:
        """Update state; return True when the branch was mispredicted."""
        self.stats.lookups += 1
        self.bht.update(pc, taken)
        if taken:
            self.btb.insert(pc, target)
        mispredicted = prediction.taken != taken
        if not mispredicted and taken and prediction.target != target:
            self.stats.target_mispredicts += 1
            return True
        if mispredicted:
            self.stats.direction_mispredicts += 1
        return mispredicted

    def predict_indirect(self, pc: int,
                         is_return: bool = False) -> Optional[int]:
        if is_return:
            predicted = self.ras.pop()
            if predicted is not None:
                return predicted
        return self.btb.lookup(pc)

    def resolve_indirect(self, pc: int, target: int,
                         predicted: Optional[int]) -> bool:
        self.stats.lookups += 1
        self.btb.insert(pc, target)
        if predicted != target:
            self.stats.target_mispredicts += 1
            return True
        return False


class _TageTable:
    """One tagged TAGE component."""

    __slots__ = ("entries", "history_length", "_tags", "_ctr", "_useful",
                 "_hist_mask", "_index_bits", "_index_mask", "_folds")

    #: Fold-pair memo bound; loopy traces revisit a few hundred masked
    #: histories, so the memo stays tiny — the cap only guards
    #: pathological history churn.
    _FOLD_CACHE_LIMIT = 1 << 16

    def __init__(self, entries: int, history_length: int) -> None:
        self.entries = entries
        self.history_length = history_length
        self._tags = [0] * entries
        self._ctr = [0] * entries      # signed -4..3, taken when >= 0
        self._useful = [0] * entries
        self._hist_mask = (1 << history_length) - 1
        self._index_bits = entries.bit_length() - 1
        self._index_mask = entries - 1
        # Masked history -> (index fold, tag fold).  Folding is a pure
        # function of the masked history, and index()/tag() are always
        # interrogated together, so one memo feeds both.
        self._folds: Dict[int, Tuple[int, int]] = {}

    def _fold_pair(self, history: int) -> Tuple[int, int]:
        history &= self._hist_mask
        pair = self._folds.get(history)
        if pair is None:
            bits = self._index_bits
            mask = (1 << bits) - 1
            idx_fold = 0
            h = history
            while h:
                idx_fold ^= h & mask
                h >>= bits
            tag_fold = 0
            h = history
            while h:
                tag_fold ^= h & 0xFF
                h >>= 8
            if len(self._folds) >= self._FOLD_CACHE_LIMIT:
                self._folds.clear()
            pair = (idx_fold, tag_fold)
            self._folds[history] = pair
        return pair

    def index(self, pc: int, history: int) -> int:
        return ((pc >> 2) ^ self._fold_pair(history)[0]) & self._index_mask

    def tag(self, pc: int, history: int) -> int:
        return (((pc >> 2) ^ self._fold_pair(history)[1] ^ 0x55) & 0xFF) or 1

    def lookup(self, pc: int, history: int) -> Optional[bool]:
        idx_fold, tag_fold = self._fold_pair(history)
        idx = ((pc >> 2) ^ idx_fold) & self._index_mask
        if self._tags[idx] == ((((pc >> 2) ^ tag_fold ^ 0x55) & 0xFF) or 1):
            return self._ctr[idx] >= 0
        return None

    def update(self, pc: int, history: int, taken: bool) -> None:
        idx_fold, tag_fold = self._fold_pair(history)
        idx = ((pc >> 2) ^ idx_fold) & self._index_mask
        if self._tags[idx] == ((((pc >> 2) ^ tag_fold ^ 0x55) & 0xFF) or 1):
            delta = 1 if taken else -1
            self._ctr[idx] = max(-4, min(3, self._ctr[idx] + delta))

    def allocate(self, pc: int, history: int, taken: bool) -> bool:
        idx_fold, tag_fold = self._fold_pair(history)
        idx = ((pc >> 2) ^ idx_fold) & self._index_mask
        if self._useful[idx] > 0:
            self._useful[idx] -= 1
            return False
        self._tags[idx] = (((pc >> 2) ^ tag_fold ^ 0x55) & 0xFF) or 1
        self._ctr[idx] = 0 if taken else -1
        self._useful[idx] = 0
        return True

    def mark_useful(self, pc: int, history: int) -> None:
        idx_fold, tag_fold = self._fold_pair(history)
        idx = ((pc >> 2) ^ idx_fold) & self._index_mask
        if self._tags[idx] == ((((pc >> 2) ^ tag_fold ^ 0x55) & 0xFF) or 1):
            self._useful[idx] = min(3, self._useful[idx] + 1)


class TagePredictor:
    """TAGE direction predictor: bimodal base + tagged geometric tables."""

    HISTORY_LENGTHS = (8, 16, 32, 64)

    def __init__(self, bimodal_entries: int = 2048,
                 table_entries: int = 1024,
                 bimodal_init: int = 2) -> None:
        self.base = BHT(bimodal_entries, init=bimodal_init)
        self.tables = [_TageTable(table_entries, length)
                       for length in self.HISTORY_LENGTHS]
        self._provider_names = tuple(f"tage{length}"
                                     for length in self.HISTORY_LENGTHS)
        self.history = 0

    def predict(self, pc: int) -> Tuple[bool, str]:
        """Return (direction, provider_name)."""
        for i in range(len(self.tables) - 1, -1, -1):
            result = self.tables[i].lookup(pc, self.history)
            if result is not None:
                return result, self._provider_names[i]
        return self.base.predict(pc), "bimodal"

    def update(self, pc: int, taken: bool, provider: str,
               predicted: bool) -> None:
        provider_index = -1
        for i, name in enumerate(self._provider_names):
            if provider == name:
                provider_index = i
                break
        if provider_index >= 0:
            self.tables[provider_index].update(pc, self.history, taken)
            if predicted == taken:
                self.tables[provider_index].mark_useful(pc, self.history)
        else:
            self.base.update(pc, taken)
        if predicted != taken:
            # Allocate in one longer table, if any.
            for table in self.tables[provider_index + 1:]:
                if table.allocate(pc, self.history, taken):
                    break
        self.history = ((self.history << 1) | int(taken)) & ((1 << 64) - 1)


class GsharePredictor:
    """Classic gshare: global history XOR pc indexing a 2-bit table."""

    def __init__(self, entries: int = 4096, history_bits: int = 12,
                 init: int = 2) -> None:
        if entries & (entries - 1):
            raise ValueError("gshare entries must be a power of two")
        self.entries = entries
        self.history_bits = history_bits
        self._table = [init] * entries
        self.history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & (self.entries - 1)

    def predict(self, pc: int) -> Tuple[bool, str]:
        return self._table[self._index(pc)] >= 2, "gshare"

    def update(self, pc: int, taken: bool, provider: str,
               predicted: bool) -> None:
        index = self._index(pc)
        counter = self._table[index]
        self._table[index] = min(3, counter + 1) if taken \
            else max(0, counter - 1)
        self.history = ((self.history << 1) | int(taken)) \
            & ((1 << self.history_bits) - 1)


class BimodalPredictor:
    """A bare 2-bit-counter table (the TAGE base, standalone)."""

    def __init__(self, entries: int = 2048, init: int = 2) -> None:
        self._bht = BHT(entries, init=init)

    def predict(self, pc: int) -> Tuple[bool, str]:
        return self._bht.predict(pc), "bimodal"

    def update(self, pc: int, taken: bool, provider: str,
               predicted: bool) -> None:
        self._bht.update(pc, taken)


DIRECTION_PREDICTORS = ("tage", "gshare", "bimodal")


def make_direction_predictor(kind: str, bimodal_init: int = 2):
    """Factory for BOOM's pluggable direction predictor."""
    if kind == "tage":
        return TagePredictor(bimodal_init=bimodal_init)
    if kind == "gshare":
        return GsharePredictor(init=bimodal_init)
    if kind == "bimodal":
        return BimodalPredictor(init=bimodal_init)
    raise ValueError(
        f"unknown direction predictor {kind!r}; "
        f"choose from {DIRECTION_PREDICTORS}")


class BoomBranchPredictor:
    """Direction predictor (TAGE by default) + BTB + RAS for BOOM."""

    def __init__(self, btb_entries: int = 512,
                 bimodal_init: int = 2,
                 direction: str = "tage") -> None:
        self.direction = make_direction_predictor(
            direction, bimodal_init=bimodal_init)
        self.btb = BTB(btb_entries)
        self.ras = ReturnAddressStack()
        self.stats = PredictorStats()
        self.decode_resteers = 0

    def predict_branch(self, pc: int) -> Prediction:
        taken, provider = self.direction.predict(pc)
        target = self.btb.lookup(pc)
        if taken and target is None:
            # Direct branch: decode computes the target, costing a short
            # frontend resteer rather than a pipeline flush.
            self.decode_resteers += 1
        return Prediction(taken=taken, target=target,
                          btb_hit=target is not None, provider=provider)

    def resolve_branch(self, pc: int, taken: bool, target: int,
                       prediction: Prediction) -> bool:
        self.stats.lookups += 1
        self.direction.update(pc, taken, prediction.provider,
                              prediction.taken)
        if taken:
            self.btb.insert(pc, target)
        if prediction.taken != taken:
            self.stats.direction_mispredicts += 1
            return True
        return False

    def predict_indirect(self, pc: int, is_return: bool = False
                         ) -> Optional[int]:
        if is_return:
            predicted = self.ras.pop()
            if predicted is not None:
                return predicted
        return self.btb.lookup(pc)

    def resolve_indirect(self, pc: int, target: int,
                         predicted: Optional[int]) -> bool:
        self.stats.lookups += 1
        self.btb.insert(pc, target)
        if predicted != target:
            self.stats.target_mispredicts += 1
            return True
        return False


def share_fold_caches(predictors) -> int:
    """Share TAGE history-fold memos across same-geometry tables.

    ``_TageTable._fold_pair`` memoizes a *pure* function of the masked
    global history — ``history -> (index fold, tag fold)`` depends only
    on the table geometry ``(entries, history_length)``, never on the
    table's contents or on which core is asking.  When a batched grid
    run instantiates N predictors, each same-geometry table can
    therefore adopt a single shared memo dict: one config's fold work
    warms every other config's tables, and because the memo is pure
    (and a capacity flush only ever costs recomputation), sharing is
    bit-identity-safe.

    *predictors* is an iterable of branch predictors (or ``None``);
    anything without a TAGE direction predictor is skipped.  Returns
    the number of tables that adopted another table's memo.
    """
    donors: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]] = {}
    shared = 0
    for predictor in predictors:
        direction = getattr(predictor, "direction", None)
        tables = getattr(direction, "tables", None)
        if not tables:
            continue
        for table in tables:
            key = (table.entries, table.history_length)
            donor = donors.get(key)
            if donor is None:
                donors[key] = table._folds
            else:
                table._folds = donor
                shared += 1
    return shared
