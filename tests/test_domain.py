import hashlib
import importlib
import itertools
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairorder import domain
from fairorder.domain import (
    CommandIds,
    ContractError,
    Invocation,
    encode_id_part,
    exact_ratio,
    quorum_median,
    tie_break_key,
)
from reference import MAX_TIMESTAMP, Slot, TimestampedCommand, make_command_id


def make_cmd(ident, quorum, noise=0):
    values = sorted(ts for _, ts in quorum)
    ats = values[len(values) // 2]
    return TimestampedCommand(
        invocation=Invocation(make_command_id(ident), 0, "solo"),
        node_timestamps=tuple(quorum),
        assigned_ts=ats,
        noise=noise,
        modified_ts=ats + noise,
    )


def median_of_chosen_quorum(reports, f, high):
    """The rule ``quorum_median`` replaces: sort the (node, ts) pairs by
    (ts, node), take the first 2f+1 (or the last, under a high bias) and
    return the median of their timestamps."""
    ordered = sorted(enumerate(reports), key=lambda pair: (pair[1], pair[0]))
    quorum = ordered[-(2 * f + 1):] if high else ordered[: 2 * f + 1]
    return sorted(ts for _, ts in quorum)[f]


class TestMedian:
    def test_median_of_three(self):
        assert quorum_median([5, 1, 9], 1) == 5

    def test_all_equal(self):
        assert quorum_median([7] * 5, 2) == 7

    @pytest.mark.parametrize("bad", [[], [1, 2], [1, 2, 3, 4]])
    def test_even_or_empty_rejected(self, bad):
        # the median of 2f+1 reports, with f = len // 2, needs one more
        with pytest.raises(ContractError):
            quorum_median(bad, len(bad) // 2)

    @pytest.mark.parametrize("reports, f", [([1, 2, 3], 2), (range(7), -1)])
    def test_fewer_than_a_quorum_rejected(self, reports, f):
        for high in (False, True):
            with pytest.raises(ContractError, match="2f"):
                quorum_median(reports, f, high)

    def test_adversarial_pair_bounded_by_correct(self):
        # f = 2 adversarial entries, correct entries {100, 110, 120}: whatever
        # the adversary submits, the median stays on a correct-node value.
        correct = [100, 110, 120]
        grid = [-10**9, 0, 105, 115, 10**9]
        for a, b in itertools.product(grid, repeat=2):
            for high in (False, True):
                med = quorum_median(correct + [a, b], 2, high)
                assert 100 <= med <= 120

    @pytest.mark.parametrize("f", [0, 1, 2])
    def test_exhaustive_bounding_up_to_n7(self, f):
        # n = 3f + 1 reports, f of them adversarial: both quorums' medians
        # stay within the correct reports
        correct = [1000 + 7 * i for i in range(2 * f + 1)]
        grid = [-10**9, -1, 1001, 1009, 10**9]
        for adversarial in itertools.product(grid, repeat=f):
            for high in (False, True):
                med = quorum_median(correct + list(adversarial), f, high)
                assert min(correct) <= med <= max(correct)

    @given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=9).filter(lambda x: len(x) % 2 == 1))
    def test_permutation_invariant(self, values):
        f = len(values) // 2
        base = quorum_median(values, f)
        assert quorum_median(list(reversed(values)), f) == base
        assert quorum_median(sorted(values), f) == base
        assert quorum_median(values, f, high=True) == base  # one quorum: all n

    @given(st.data())
    def test_equals_the_median_of_the_chosen_quorum(self, data):
        f = data.draw(st.integers(0, 5))
        n = data.draw(st.integers(2 * f + 1, 3 * f + 4))
        reports = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        for high in (False, True):
            assert quorum_median(reports, f, high) == median_of_chosen_quorum(reports, f, high)


class TestTieBreak:
    def test_balanced_over_random_pairs(self):
        wins = 0
        trials = 10_000
        for i in range(trials):
            seed = make_command_id("seed", i)
            ka = tie_break_key(seed, make_command_id("a", i))
            kb = tie_break_key(seed, make_command_id("b", i))
            wins += ka < kb
        assert abs(wins / trials - 0.5) < 0.02


class TestTypes:
    def test_origin_city_is_required(self):
        # a command is always sent from some city: there is no default
        with pytest.raises(TypeError):
            Invocation(b"x", 0)

    def test_invoke_time_nonnegative(self):
        with pytest.raises(ContractError):
            Invocation(b"x", -1, "solo")

    def test_timestamped_command_checks_median(self):
        with pytest.raises(ContractError):
            TimestampedCommand(
                invocation=Invocation(b"x", 0, "solo"),
                node_timestamps=((0, 1), (1, 2), (2, 3)),
                assigned_ts=3,
                noise=0,
                modified_ts=3,
            )

    def test_timestamped_command_checks_sum(self):
        with pytest.raises(ContractError):
            TimestampedCommand(
                invocation=Invocation(b"x", 0, "solo"),
                node_timestamps=((0, 1), (1, 2), (2, 3)),
                assigned_ts=2,
                noise=5,
                modified_ts=2,
            )

    def test_noise_nonnegative(self):
        with pytest.raises(ContractError):
            make_cmd("x", [(0, 5), (1, 5), (2, 5)], noise=-1)

    def test_timestamped_command_checks_overflow(self):
        edge = [(0, MAX_TIMESTAMP - 1)] * 3
        assert make_cmd("x", edge, noise=1).modified_ts == MAX_TIMESTAMP
        with pytest.raises(ContractError, match="overflow"):
            make_cmd("x", edge, noise=2)

    @pytest.mark.parametrize("start, end", [(10, 10), (10, 9)])
    def test_slot_interval_nonempty(self, start, end):
        with pytest.raises(ContractError, match="nonempty"):
            Slot(index=0, interval_start=start, interval_end=end)

    @pytest.mark.parametrize("ts, inside", [(99, False), (100, True), (199, True), (200, False)])
    def test_slot_holds_only_its_interval(self, ts, inside):
        cmd = make_cmd("x", [(0, ts), (1, ts), (2, ts)])
        if inside:
            assert Slot(1, 100, 200, (cmd,)).decided_commands == (cmd,)
        else:
            with pytest.raises(ContractError, match="outside slot interval"):
                Slot(1, 100, 200, (cmd,))

    def test_slot_certificate_signers_distinct(self):
        Slot(0, 0, 10, decision_certificate=frozenset({(0, b"a"), (1, b"a")}))
        with pytest.raises(ContractError, match="duplicate node"):
            Slot(0, 0, 10, decision_certificate=frozenset({(0, b"a"), (0, b"b")}))


class Fifth(Fraction):
    """A ``Fraction`` subclass, which ``exact_ratio`` converts."""


class TestExactRatio:
    @pytest.mark.parametrize(
        "value, want",
        [(3, Fraction(3)), (Fraction(1, 5), Fraction(1, 5)), ("1/5", Fraction(1, 5)),
         ("0.2", Fraction(1, 5)), (" 7/14 ", Fraction(1, 2)), (Decimal("0.2"), Fraction(1, 5))],
    )
    def test_exact_values_read_as_written(self, value, want):
        assert exact_ratio(value, "x") == want

    def test_a_fraction_comes_back_unchanged(self):
        x = Fraction(1, 5)
        assert exact_ratio(x, "x") is x

    @pytest.mark.parametrize("value", [3, "1/5", Fifth(1, 5)], ids=["int", "ratio", "subclass"])
    def test_other_values_come_back_as_a_plain_fraction(self, value):
        got = exact_ratio(value, "x")
        assert type(got) is Fraction and got == Fraction(value)

    @pytest.mark.parametrize("value", [0.2, 1.0, float("nan"), np.float64(0.5)])
    def test_floats_are_refused(self, value):
        with pytest.raises(ContractError, match="pass width as Fraction"):
            exact_ratio(value, "width")

    @pytest.mark.parametrize(
        "value", ["abc", "1/0", "", None, [1], "0x10", "inf", Decimal("Infinity"), Decimal("NaN")]
    )
    def test_unreadable_values_name_the_value(self, value):
        with pytest.raises(ContractError, match="expected width as an exact ratio"):
            exact_ratio(value, "width")


class TestEncodeIdPart:
    @pytest.mark.parametrize(
        "value", [0, 1, -1, 2**31, -(2**31), 2**63 - 1, -(2**63), True]
    )
    def test_int_bytes(self, value):
        # its length, 8, then 8 bytes two's complement
        want = (8).to_bytes(4, "big") + int(value).to_bytes(8, "big", signed=True)
        assert encode_id_part(value) == want

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 10**19])
    def test_int_outside_int64_rejected(self, value):
        with pytest.raises(ContractError, match="signed 64-bit"):
            encode_id_part(value)
        with pytest.raises(ContractError):
            CommandIds(("gap", "pompe", value), ["early"])
        with pytest.raises(ContractError):
            CommandIds(("gap",), ["early"])(value)


class TestCommandIds:
    def test_length_prefixed_encoding(self):
        # each part is its 4-byte big-endian length and its bytes; an int is
        # 8 bytes two's complement, a str its UTF-8 (and, in the reference
        # only, a tuple its own id)
        want = hashlib.sha256(
            b"\x00\x00\x00\x03geo"
            + b"\x00\x00\x00\x08" + (-2).to_bytes(8, "big", signed=True)
            + b"\x00\x00\x00\x02\x00\xff"
        ).digest()
        assert CommandIds(("geo",), [b"\x00\xff"])(-2) == [want]
        inner = hashlib.sha256(b"\x00\x00\x00\x01z").digest()
        want = hashlib.sha256(
            b"\x00\x00\x00\x03geo"
            + b"\x00\x00\x00\x08" + (-2).to_bytes(8, "big", signed=True)
            + b"\x00\x00\x00\x02\x00\xff"
            + b"\x00\x00\x00\x20" + inner
        ).digest()
        assert make_command_id("geo", -2, b"\x00\xff", ("z",)) == want

    @pytest.mark.parametrize("tags", [
        (),
        ("geo", 3, "bercow:1500"),
        ("tag", -7, b"\x00raw", b""),
    ])
    def test_deriver_equals_make_command_id(self, tags):
        labels = ("a", "victim", "é")
        ids = CommandIds(tags, labels)
        for trial in (0, 1, 999, -1):
            assert ids(trial) == [make_command_id(*tags, trial, label) for label in labels]
        # a deriver hands out fresh copies: repeating a call repeats its ids
        assert ids(5) == ids(5) != ids(6)

    @pytest.mark.parametrize("label", ["a", b"\x00raw"])
    def test_deriver_at_the_int64_limits(self, label):
        ids = CommandIds(("geo", 3, "bercow:1500"), [label])
        # the label is encoded once; every call reuses that encoding
        for trial in (2**63 - 1, -(2**63), 0):
            assert ids(trial) == [make_command_id("geo", 3, "bercow:1500", trial, label)]

    def test_deriver_rejects_what_make_command_id_rejects(self):
        # 1 and 1.0 are equal, but only the int is a valid label
        assert CommandIds(("geo",), [1])(0) == [make_command_id("geo", 0, 1)]
        with pytest.raises(TypeError):
            make_command_id("geo", 0, 1.0)
        with pytest.raises(TypeError):
            CommandIds(("geo",), [1.0])

    @pytest.mark.parametrize("tags, labels", [((("z",),), ["a"]), (("geo",), [("z",)])])
    def test_tuple_tag_or_label_rejected(self, tags, labels):
        # a part is an int, a str or bytes; nested ids are not derived
        with pytest.raises(TypeError):
            CommandIds(tags, labels)


# every message length from 0 to 300 bytes crosses SHA-256's 55/64-byte and
# SHA-512's 111/128-byte padding boundaries
STREAM = bytes(i * 7 % 256 for i in range(300))
MESSAGES = [STREAM[:length] for length in range(301)]


class TestSha2Binding:
    @pytest.mark.parametrize("name", ["sha256", "sha512"])
    def test_digests_equal_hashlibs(self, name):
        ours, theirs = getattr(domain, name), getattr(hashlib, name)
        for message in MESSAGES:
            assert ours(message).digest() == theirs(message).digest(), len(message)

    @pytest.mark.parametrize("name", ["sha256", "sha512"])
    def test_a_copied_prefix_state_extends_as_hashlibs(self, name):
        # the kernels' shape: a prefix state, copied, updated, digested; the
        # prefix itself is never changed by its copies
        ours, theirs = getattr(domain, name), getattr(hashlib, name)
        for cut in (0, 5, 55, 64, 111, 128, 200):
            prefix = ours(STREAM[:cut])
            for message in MESSAGES[::7]:
                h = prefix.copy()
                h.update(message)
                h.update(message[:3])
                want = theirs(STREAM[:cut] + message + message[:3]).digest()
                assert h.digest() == want, (cut, len(message))
            assert prefix.digest() == theirs(STREAM[:cut]).digest()

    def test_the_binding_is_cpythons_own(self):
        # a build without the built-in modules falls back to hashlib's; one
        # that has them must not, or the fallback happened silently
        for modules in (("_sha2", "_sha2"), ("_sha256", "_sha512")):
            try:
                builtin = [importlib.import_module(module) for module in modules]
                break
            except ImportError:
                continue
        else:
            pytest.skip("this interpreter was built without CPython's SHA-2 modules")
        # so not hashlib's OpenSSL constructors (openssl_sha256, ...)
        assert domain.sha256 is builtin[0].sha256
        assert domain.sha512 is builtin[1].sha512
