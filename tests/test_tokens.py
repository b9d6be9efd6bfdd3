import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracle_reference import exhaustive_check_reference

from lifeframes import tokens
from lifeframes.kinematics import compose_parallel, galilean, lorentz
from lifeframes.tokens import (
    CarrierBulletRun,
    ScheduleError,
    TokenRun,
    exhaustive_check,
    run_carrier_bullet,
    run_pawn_duel,
)


class TestTokenRun:
    def test_displacement_counts_jumps(self):
        run = TokenRun(10, frozenset({0, 3, 7}))
        assert run.displacement == 3
        assert run.velocity == F(3, 10)

    def test_trace_marks_jump_moves(self):
        run = TokenRun(4, frozenset({1, 2}))
        assert run.trace == (0, 1, 2, 2)

    def test_rejects_out_of_range_moves(self):
        with pytest.raises(ScheduleError):
            TokenRun(4, frozenset({4}))
        with pytest.raises(ScheduleError):
            TokenRun(4, frozenset({-1}))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ScheduleError):
            TokenRun(0, frozenset())


class TestCarrierBullet:
    def test_worked_seven_tenths(self):
        run = run_carrier_bullet(10, 4, 3)
        assert run.displacement == 7
        assert run.v12 == F(7, 10)

    def test_two_move_game_saturates(self):
        # the bullet jumps on its only free move, so it rides at light speed
        run = run_carrier_bullet(2, 1, 1)
        assert run.displacement == 2
        assert run.v12 == 1
        assert run.v12 == compose_parallel(F(1, 2), F(1, 1))

    def test_matches_algebra_on_quarter_third(self):
        run = run_carrier_bullet(4, 1, 1)
        assert run.v12 == compose_parallel(F(1, 4), F(1, 3))

    def test_explicit_schedules_agree_with_defaults(self):
        default = run_carrier_bullet(12, 5, 4)
        explicit = run_carrier_bullet(
            12,
            5,
            4,
            carrier_jumps=default.carrier_jumps,
            bullet_jumps=default.bullet_jumps,
        )
        assert explicit.v12 == default.v12
        # An explicit bullet schedule alone: the carrier jumps earliest-first.
        bullet_only = run_carrier_bullet(12, 5, 4, bullet_jumps={5, 7, 9, 11})
        assert bullet_only.carrier_jumps == default.carrier_jumps
        assert bullet_only.v12 == default.v12

    def test_velocity_ignores_which_moves_were_picked(self):
        rng = random.Random(7)
        for _ in range(50):
            total = rng.randrange(2, 24)
            n1 = rng.randrange(0, total + 1)
            n2 = rng.randrange(0, total - n1 + 1)
            moves = list(range(total))
            rng.shuffle(moves)
            carrier = frozenset(moves[:n1])
            rest = [m for m in moves if m not in carrier]
            rng.shuffle(rest)
            bullet = frozenset(rest[:n2])
            run = run_carrier_bullet(
                total, n1, n2, carrier_jumps=carrier, bullet_jumps=bullet
            )
            assert run.v12 == run_carrier_bullet(total, n1, n2).v12

    def test_rejects_a_game_of_no_moves(self):
        with pytest.raises(ScheduleError, match="at least one move"):
            run_carrier_bullet(0, 0, 0)

    def test_overcommitted_schedule(self):
        with pytest.raises(ScheduleError):
            run_carrier_bullet(4, 3, 2)

    def test_bullet_cannot_reuse_carrier_moves(self):
        with pytest.raises(ScheduleError, match="does not fit"):
            run_carrier_bullet(
                4, 1, 1, carrier_jumps=frozenset({0}), bullet_jumps=frozenset({0})
            )

    def test_repr_is_pinned(self):
        assert repr(run_carrier_bullet(10, 4, 3)) == (
            "CarrierBulletRun(total_moves=10, carrier_jumps=frozenset({0, 1, 2, 3}), "
            "bullet_jumps=frozenset({4, 5, 6}))"
        )

    @given(st.integers(min_value=1, max_value=20), st.data())
    def test_run_contract(self, total, data):
        n1 = data.draw(st.integers(min_value=0, max_value=total))
        n2 = data.draw(st.integers(min_value=0, max_value=total - n1))
        run = run_carrier_bullet(total, n1, n2)
        assert type(run) is CarrierBulletRun
        assert run.total_moves == total
        assert run.carrier_jumps == frozenset(range(n1))
        assert run.bullet_jumps == frozenset(range(n1, n1 + n2))
        assert type(run.carrier_jumps) is frozenset
        assert type(run.bullet_jumps) is frozenset
        for field in dataclasses.fields(run):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(run, field.name, getattr(run, field.name))
        twins = (
            run_carrier_bullet(total, n1, n2),
            # Explicit schedules take the _pick path, which shares nothing
            # with the cache of default spans.
            run_carrier_bullet(
                total, n1, n2, carrier_jumps=range(n1), bullet_jumps=range(n1, n1 + n2)
            ),
            run_carrier_bullet(
                total,
                n1,
                n2,
                carrier_jumps=list(range(n1)),
                bullet_jumps=range(n1, n1 + n2),
            ),
            CarrierBulletRun(
                total_moves=total,
                carrier_jumps=frozenset(range(n1)),
                bullet_jumps=frozenset(range(n1, n1 + n2)),
            ),
            dataclasses.replace(run),
        )
        assert twins[0].carrier_jumps is run.carrier_jumps
        assert twins[0].bullet_jumps is run.bullet_jumps
        for twin in twins:
            assert twin is not run
            assert twin == run
            assert hash(twin) == hash(run)
            assert repr(twin) == repr(run)
        assert len({run, *twins}) == 1
        if n2:
            assert run != run_carrier_bullet(total, n1, n2 - 1)

    def test_spans_longer_than_64_moves_are_not_cached(self):
        size = tokens._span.cache_info().currsize
        run = run_carrier_bullet(200, 100, 100)
        assert run.carrier_jumps == frozenset(range(100))
        assert run.bullet_jumps == frozenset(range(100, 200))
        assert tokens._span.cache_info().currsize == size

    @pytest.mark.parametrize("n1, n2", [(2.0, 1), (2, 1.0), (F(2), 1)])
    def test_a_non_int_count_never_finds_a_cached_span(self, n1, n2):
        run_carrier_bullet(10, 2, 1)
        with pytest.raises(TypeError):
            run_carrier_bullet(10, n1, n2)

    @pytest.mark.parametrize("bad", [True, 2.5, 4.0, F(2), "2"])
    @pytest.mark.parametrize(
        "slot", ["total_moves", "carrier_jump_count", "bullet_jump_count"]
    )
    def test_counts_must_be_ints(self, slot, bad):
        counts = {"total_moves": 10, "carrier_jump_count": 2, "bullet_jump_count": 1}
        with pytest.raises(TypeError, match=rf"^{slot} must be an int, not "):
            run_carrier_bullet(**{**counts, slot: bad})

    def test_numpy_integer_counts_become_ints(self):
        np = pytest.importorskip("numpy")
        run = run_carrier_bullet(np.int64(10), np.int32(2), np.int16(1))
        assert run == run_carrier_bullet(10, 2, 1)
        assert type(run.total_moves) is int and type(run.v12.denominator) is int

    def test_trace_is_cumulative_and_monotone(self):
        run = run_carrier_bullet(9, 3, 2)
        trace = run.trace
        assert len(trace) == 9
        assert trace[-1] == run.displacement
        assert all(b - a in (0, 1) for a, b in zip(trace, trace[1:]))


class TestPawnDuel:
    def test_all_white_moves(self):
        assert run_pawn_duel(8, frozenset(range(8)), frozenset()) == 8

    def test_interleaved(self):
        assert run_pawn_duel(6, frozenset({0, 2}), frozenset({1, 3, 4, 5})) == 6

    def test_simultaneous_move_is_illegal(self):
        with pytest.raises(ScheduleError, match="simultaneous"):
            run_pawn_duel(4, frozenset({1}), frozenset({1}))

    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_total_advance_never_beats_the_clock(self, total, data):
        white = data.draw(
            st.frozensets(st.integers(min_value=0, max_value=total - 1))
        )
        pool = sorted(set(range(total)) - white)
        black = data.draw(st.frozensets(st.sampled_from(pool)) if pool else st.just(frozenset()))
        advance = run_pawn_duel(total, white, black)
        assert advance == len(white) + len(black)
        assert advance <= total


def _wrong_at_a_third_and_a_half(a, b):
    """The board law, off by 1/10^6 at v1 = 1/3, v2 = 1/2 only."""
    return compose_parallel(a, b) + (F(1, 10**6) if (a, b) == (F(1, 3), F(1, 2)) else 0)


class TestExhaustive:
    def test_counts_are_frozen(self):
        assert exhaustive_check(1).cases == 3
        assert exhaustive_check(4).cases == 34
        assert exhaustive_check(10).cases == 285

    def test_no_counterexamples_up_to_ten(self):
        report = exhaustive_check(10)
        assert report.consistent
        assert report.counterexamples == ()

    def test_requires_positive_bound(self):
        with pytest.raises(ValueError):
            exhaustive_check(0)
        with pytest.raises(ScheduleError, match="need at least one move"):
            exhaustive_check(-1)

    @pytest.mark.parametrize("bound", [True, False, 2.5, "3", F(3)])
    def test_bound_must_be_an_int(self, bound):
        with pytest.raises(TypeError, match="max_total_moves must be an int"):
            exhaustive_check(bound)

    def test_numpy_integer_bound_becomes_an_int(self):
        np = pytest.importorskip("numpy")
        report = exhaustive_check(np.int64(10))
        assert report == exhaustive_check(10)
        assert type(report.max_total_moves) is int

    @pytest.mark.parametrize("bound", [*range(1, 31), 48])
    def test_matches_the_reference_oracle(self, bound):
        report = exhaustive_check(bound)
        assert report == exhaustive_check_reference(bound)
        assert report.consistent
        if bound == 48:
            assert report.cases == 20824

    @pytest.mark.parametrize(
        "law",
        [
            galilean,
            lorentz,
            _wrong_at_a_third_and_a_half,
            lambda a, b: math.floor(compose_parallel(a, b)),
        ],
        ids=["galilean", "lorentz", "wrong_once", "int_valued"],
    )
    def test_a_patched_law_matches_the_reference(self, monkeypatch, law):
        expected = exhaustive_check_reference(14, law)
        monkeypatch.setattr(tokens, "compose_parallel", law)
        assert exhaustive_check(14) == expected
        assert expected.counterexamples

    def test_wrong_on_one_pair_is_caught_on_every_schedule_of_it(self, monkeypatch):
        monkeypatch.setattr(tokens, "compose_parallel", _wrong_at_a_third_and_a_half)
        report = exhaustive_check(12)
        assert report.counterexamples == tuple((3 * k, k, k) for k in range(1, 5))

    def test_each_case_runs_the_schedule_and_the_law_once(self, monkeypatch):
        runs, laws = [], []

        def counted_run(*args):
            runs.append(args)
            return run_carrier_bullet(*args)

        def counted_law(*args):
            laws.append(args)
            return compose_parallel(*args)

        monkeypatch.setattr(tokens, "run_carrier_bullet", counted_run)
        monkeypatch.setattr(tokens, "compose_parallel", counted_law)
        report = exhaustive_check(12)
        schedules = [
            (p, n1, n2)
            for p in range(1, 13)
            for n1 in range(p + 1)
            for n2 in range(p - n1 + 1)
        ]
        assert report.cases == len(schedules) == 454
        assert runs == schedules
        assert laws == [
            (F(n1, p), F(n2, p - n1) if p > n1 else F(0)) for p, n1, n2 in schedules
        ]
        assert all(type(v) is F for pair in laws for v in pair)

    def test_a_wrong_law_is_caught(self, monkeypatch):
        # The Galilean sum agrees with the token runs only when one of
        # the two tokens never jumps.
        monkeypatch.setattr(tokens, "compose_parallel", galilean)
        report = exhaustive_check(6)
        expected = tuple(
            (p, n1, n2)
            for p in range(1, 7)
            for n1 in range(p + 1)
            for n2 in range(p - n1 + 1)
            if n1 * n2 > 0
        )
        assert len(expected) == 35
        assert report.cases == 83
        assert report.counterexamples == expected
        assert not report.consistent


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
)
def test_run_agrees_with_composition_law(total, n1, n2):
    if n1 + n2 > total:
        with pytest.raises(ScheduleError):
            run_carrier_bullet(total, n1, n2)
        return
    run = run_carrier_bullet(total, n1, n2)
    v1 = F(n1, total)
    v2 = F(n2, total - n1) if total > n1 else F(0)
    assert run.v12 == compose_parallel(v1, v2)
