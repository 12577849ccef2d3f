"""Generated instruction decoder.

Built from the ADL decode patterns: instructions are grouped by byte
length, and within each group bucketed by their value under the group's
*common fixed mask* (the bits every instruction in the group constrains —
in practice the opcode bits).  Decoding reads candidate lengths shortest
first; the analyzer's ambiguity check guarantees at most one instruction can
match a given byte sequence, so the first hit is the answer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["Decoder", "Decoded", "DecodeError"]


class DecodeError(Exception):
    """No instruction matches the bytes at the given address."""

    def __init__(self, address: int, message: str = "invalid instruction"):
        self.address = address
        super().__init__("%s at %#x" % (message, address))


class Decoded:
    """One decoded instruction instance."""

    __slots__ = ("instruction", "address", "word", "fields", "length",
                 "__weakref__")

    def __init__(self, instruction, address: int, word: int,
                 fields: Dict[str, int]):
        self.instruction = instruction
        self.address = address
        self.word = word
        self.fields = fields
        self.length = instruction.length

    @property
    def rule(self):
        """Spec provenance of the semantic rule that decoded this
        instruction (:class:`~repro.adl.translate.RuleProvenance`)."""
        return self.instruction.provenance

    def __repr__(self):
        return "<Decoded %s @ %#x>" % (self.instruction.name, self.address)


class _LengthGroup:
    def __init__(self, length: int, instructions):
        self.length = length
        common = ~0
        for instr in instructions:
            common &= instr.pattern.mask
        self.common_mask = common & ((1 << (8 * length)) - 1)
        self.buckets: Dict[int, List] = {}
        for instr in instructions:
            key = instr.pattern.match & self.common_mask
            self.buckets.setdefault(key, []).append(instr)

    def lookup(self, word: int):
        for instr in self.buckets.get(word & self.common_mask, ()):
            if instr.pattern.matches(word):
                return instr
        return None


class Decoder:
    """Decodes instructions of an :class:`~repro.isa.model.ArchModel`."""

    def __init__(self, model):
        self._model = model
        groups: Dict[int, List] = {}
        for instr in model.instructions:
            groups.setdefault(instr.length, []).append(instr)
        self._groups: List[_LengthGroup] = [
            _LengthGroup(length, groups[length])
            for length in sorted(groups)]
        # A per-address decode cache: instruction memory rarely changes.
        self._cache: Dict[Tuple[int, bytes], Decoded] = {}
        # Observability (attached by the engine; see repro.obs).  The
        # engine reads ``last_cache_hit`` after each decode to emit the
        # ``decode_cache`` event with full state context.
        from ..obs.metrics import NULL_COUNTER
        self._hit_counter = NULL_COUNTER
        self._miss_counter = NULL_COUNTER
        self.last_cache_hit = False

    def attach_obs(self, obs) -> None:
        """Count decode-cache hits/misses in ``obs.metrics``."""
        self._hit_counter = obs.metrics.counter("decode.cache_hit")
        self._miss_counter = obs.metrics.counter("decode.cache_miss")

    def decode_bytes(self, data: bytes, address: int) -> Decoded:
        """Decode the instruction starting at ``data[0]``.

        ``data`` must supply at least as many bytes as the longest
        instruction, or as many as remain in the mapped region.
        """
        for group in self._groups:
            if len(data) < group.length:
                continue
            window = bytes(data[:group.length])
            cached = self._cache.get((address, window))
            if cached is not None:
                self.last_cache_hit = True
                self._hit_counter.inc()
                return cached
            word = self._model.word_from_bytes(window)
            instr = group.lookup(word)
            if instr is not None:
                fields = instr.bind(word)
                for name, limit in instr.reg_field_limits.items():
                    if fields[name] >= limit:
                        raise DecodeError(
                            address, "register index %d out of range in %s"
                            % (fields[name], instr.name))
                decoded = Decoded(instr, address, word, fields)
                self._cache[(address, window)] = decoded
                self.last_cache_hit = False
                self._miss_counter.inc()
                return decoded
        self.last_cache_hit = False
        raise DecodeError(address)

    @property
    def max_length(self) -> int:
        return self._groups[-1].length if self._groups else 0

    def cache_clear(self) -> None:
        self._cache.clear()
