"""numpy's `Generator(Philox(SeedSequence(seed)))` stream in pure Python.

`Philox.from_seed(seed)` reproduces the stream word for word for the
draws the library makes: `random()` and blocks of it (`uniforms`,
`replay_uniforms`), `integers(high)` for 1 <= high <= 2**32, and blocks
of `integers(high)` (`draw`, `replay`), with no numpy.  Its block
counter is limited to 2**64 blocks (numpy carries into a 256-bit
counter); no draw comes near it.
"""

from __future__ import annotations

import sys
from array import array

from .rng import check_seed

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MUL0, _MUL1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # Philox4x64 round multipliers
_WEYL0, _WEYL1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # Philox4x64 key increments
_ROUNDS = 10
_UNIT = 1.0 / 9007199254740992.0  # 2**-53: random() is the top 53 bits of a word times this
_BLOCKS = 128  # Philox blocks computed at once, as 128-bit lanes of one int (512 words)
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _BLOCKS, "little")  # 1 in every lane
_LANES = _ONES * _MASK64  # the low 64 bits of every lane
_WEYL_LANES = (_WEYL0 * _ONES, _WEYL1 * _ONES)
_RAMP = int.from_bytes(b"".join(b.to_bytes(16, "little") for b in range(_BLOCKS)), "little")  # b in lane b


def _seed_sequence_key(seed: int) -> tuple[int, int]:
    """numpy's `SeedSequence(seed).generate_state(2, uint64)`: pool size 4, no spawn key."""
    entropy = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value = (value ^ mult) * (mult := mult * 0x931E8875 & _MASK32) & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, out = 0x8B51F9DD, []
    for word in pool:
        word = (word ^ mult) * (mult := mult * 0x58F38DED & _MASK32) & _MASK32
        out.append(word ^ word >> 16)
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _lemire(run: bytes, high: int) -> list[int]:
    """x*high >> 32 for the little-endian 32-bit draws x of `run`, up to the first one numpy's Lemire rule rejects.

    The rule rejects x when x*high mod 2**32 < 2**32 mod high.  Each x is
    spread to a 64-bit lane of one int, so one product serves them all;
    adding 2**32 - (2**32 mod high) to the low half of each lane carries
    into bit 32 exactly where x is accepted.
    """
    count = taken = len(run) // 4
    spread = bytearray(8 * count)
    for b in range(4):
        spread[b::8] = run[b::4]
    ones = int.from_bytes((b"\x01" + bytes(7)) * count, "little")
    low = ones * _MASK32
    product = int.from_bytes(spread, "little") * high
    accepted = ((product & low) + ones * ((1 << 32) - (1 << 32) % high)) >> 32 & ones
    if accepted != ones:
        missing = accepted ^ ones
        taken = ((missing & -missing).bit_length() - 1) // 64
    values = array("Q", (product >> 32 & low).to_bytes(8 * count, "little"))
    if sys.byteorder == "big":
        values.byteswap()
    return values[:taken].tolist()


class Philox:
    """numpy's `Generator(Philox(SeedSequence(seed)))` draws, in pure Python.

    Word i of the stream is word i % 4 of the Philox4x64-10 block at
    counter i // 4 + 1.  `random()` is `(w >> 11) * 2**-53` of the next
    word, and `uniforms(k)` gives k of them at once from the cached
    words; a 32-bit draw takes the buffered upper half of a word if there
    is one, else the lower half of the next word, buffering its upper
    half.  `integers(high)` maps a 32-bit draw x to x*high >> 32 unless
    x*high mod 2**32 < 2**32 mod high, when it draws again (numpy's
    Lemire rule); high = 1 takes no draw.  `state` is (index of the next
    word, the buffered half or None).

    Words are computed `4 * _BLOCKS` at a time, each block a 128-bit lane
    of one int, and kept until the stream leaves them.
    """

    __slots__ = ("_keys", "_word", "_half", "_base", "_words", "_raw", "_clean")

    def __init__(self, key: tuple[int, int]):
        # the round keys, each in every lane: k + r * weyl mod 2**64, lane by lane
        k0, k1 = key[0] * _ONES, key[1] * _ONES
        self._keys = []
        for _ in range(_ROUNDS):
            self._keys.append((k0, k1))
            k0, k1 = (k0 + _WEYL_LANES[0]) & _LANES, (k1 + _WEYL_LANES[1]) & _LANES
        self._word, self._half = 0, None
        self._base, self._words, self._raw = -4 * _BLOCKS, array("Q"), b""  # holds no word
        self._clean = None  # (state, high, k) of the last block draw if it took one 32-bit draw per value

    @classmethod
    def from_seed(cls, seed: int) -> Philox:
        return cls(_seed_sequence_key(check_seed(seed)))

    @property
    def state(self) -> tuple[int, int | None]:
        return self._word, self._half

    @state.setter
    def state(self, state: tuple[int, int | None]):
        self._word, self._half = state

    def _fill(self, word: int) -> int:
        """Make the cached chunk the one holding `word`; return its offset there."""
        base = word - word % (4 * _BLOCKS)
        if base != self._base:
            self._base, self._words, self._raw = base, *self._chunk(base // 4)
        return word - base

    def _chunk(self, block: int) -> tuple[array, bytes]:
        """The words of the `_BLOCKS` blocks from `block` on (counters block + 1, ...), and their little-endian bytes."""
        # word 4b + j is lane j of block b; c1 and c3 of each round are the low halves of the
        # previous round's products p1 and p0, so hi ^ c is ((p >> 64) ^ previous p) & _LANES
        c0, c2, p0, p1 = (block + 1) * _ONES + _RAMP, 0, 0, 0
        for k0, k1 in self._keys:
            q0, q1 = _MUL0 * c0, _MUL1 * c2
            c0, c2 = ((q1 >> 64) ^ p1) & _LANES ^ k0, ((q0 >> 64) ^ p0) & _LANES ^ k1
            p0, p1 = q0, q1
        raw = array("Q", bytes(32 * _BLOCKS))
        for j, lane in enumerate((c0, p1 & _LANES, c2, p0 & _LANES)):
            raw[j::4] = array("Q", lane.to_bytes(16 * _BLOCKS, "little"))[::2]
        data = raw.tobytes()
        words = array("Q", data)
        if sys.byteorder == "big":
            words.byteswap()
        return words, data

    def _next64(self) -> int:
        i = self._word - self._base
        if not 0 <= i < 4 * _BLOCKS:
            i = self._fill(self._word)
        self._word += 1
        return self._words[i]

    def random(self) -> float:
        return (self._next64() >> 11) * _UNIT

    def uniforms(self, k: int) -> list[float]:
        """The values of k `random()` calls, in order, read from the cached words; the stream moves past them."""
        values = []
        while len(values) < k:
            i = self._fill(self._word)
            words = self._words[i : i + k - len(values)]
            values += [(w >> 11) * _UNIT for w in words]
            self._word += len(words)
        return values

    def replay_uniforms(self, k: int) -> None:
        """Move the stream as k `random()` calls would: each takes one word, and the buffered half stays."""
        self._word += k

    def integers(self, high: int) -> int:
        """One value of numpy's `Generator.integers(high)`, 0 <= value < high."""
        if not 1 <= high <= 1 << 32:
            raise ValueError(f"high must be in [1, 2**32], got {high}")
        threshold = (1 << 32) % high
        while high > 1:
            if self._half is None:
                word = self._next64()
                x, self._half = word & _MASK32, word >> 32
            else:
                x, self._half = self._half, None
            if x * high & _MASK32 >= threshold:
                return x * high >> 32
        return 0

    def _skip(self, draws: int) -> None:
        """Move past `draws` 32-bit draws."""
        if draws and self._half is not None:
            self._half, draws = None, draws - 1
        word = self._word + draws // 2
        if draws % 2:
            i = self._fill(word)  # before reading self._words, which the fill may replace
            self._half = self._words[i] >> 32
            word += 1
        self._word = word

    def draw(self, high: int, k: int) -> list[int]:
        """The values of k `integers(high)` calls, in order, leaving the stream where they would.

        Runs of 32-bit draws up to a rejected one are mapped at once
        (`_lemire`); a rejected draw and the ones after it that its value
        takes go through `integers`.
        """
        if not 1 < high <= 1 << 32:
            self.integers(high)  # raises unless high is 1, which takes no draw
            return [0] * k
        start, values, clean = self.state, [], True
        while len(values) < k:
            if self._half is None:
                i = 8 * self._fill(self._word)
                run = self._raw[i : i + 4 * (k - len(values))]
            else:
                run = self._half.to_bytes(4, "little")
            mapped = _lemire(run, high)
            values += mapped
            self._skip(len(mapped))
            if 4 * len(mapped) < len(run):
                clean = False
                values.append(self.integers(high))
        self._clean = (start, high, k) if clean else None
        return values

    def replay(self, high: int, k: int) -> None:
        """Take k `integers(high)` values, as `draw` would, without computing them when it can.

        After a block draw from this state that rejected no draw, each
        value took one 32-bit draw, and the stream moves by arithmetic.
        """
        clean = self._clean
        if clean is not None and clean[:2] == (self.state, high) and k <= clean[2]:
            self._skip(k)
        else:
            self.draw(high, k)
