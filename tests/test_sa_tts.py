"""Tests for the schedule time-to-solution harness in tools/sa_tts.py."""

import math

import numpy as np
import pytest

from csgcompress.qubo import AnnealSchedule, default_schedule, solve_sa
from tests.conftest import abstract_cover_qubo
from tools import sa_tts


class TestTts99:
    def test_a_sure_run_takes_one_run(self):
        assert sa_tts.tts99(0.25, 1.0) == 0.25

    def test_a_run_that_never_succeeds_is_not_reached(self):
        assert sa_tts.tts99(0.25, 0.0) == math.inf

    @pytest.mark.parametrize("p_run", [0.01, 0.5, 0.9])
    def test_between_follows_the_formula(self, p_run):
        expected = 0.25 * math.log(0.01) / math.log(1.0 - p_run)
        assert sa_tts.tts99(0.25, p_run) == pytest.approx(expected, rel=1e-12)

    def test_never_below_one_run(self):
        # Above 0.99 the formula asks for less than one run.
        assert sa_tts.tts99(0.25, 0.999) == 0.25

    def test_run_success(self):
        assert sa_tts.run_success(0.5, 3) == 0.875
        assert sa_tts.run_success(0.0, 512) == 0.0
        assert sa_tts.run_success(1.0, 1) == 1.0


class TestInstances:
    def test_anneal_scenes_give_the_pipeline_qubos(self, fig_abstract_instance):
        found = sa_tts.instances()
        assert list(found) == ["reference", "chain6", "chain12", "chain16",
                               "chain20", "chain24"]
        q, optimum = sa_tts.cover_qubo(found["reference"])
        twin, twin_optimum = abstract_cover_qubo(fig_abstract_instance)
        assert (q.n, q.linear, q.quadratic, q.offset, optimum) == (
            twin.n, twin.linear, twin.quadratic, twin.offset, twin_optimum)
        assert q.n == 19 and optimum == 4.0
        q6, optimum6 = sa_tts.cover_qubo(found["chain6"])
        assert q6.n == 25 and optimum6 == 6.0


class TestPrefixRuns:
    def test_narrower_runs_are_read_off_a_wide_run(self, fig_abstract_instance):
        # A run of R restarts reaches the optimum iff one of the first R
        # restarts of a wider run with the same seed does.
        q, optimum = abstract_cover_qubo(fig_abstract_instance)
        t_start = default_schedule(q).t_start
        wide = AnnealSchedule(t_start, 0.01, 3 * q.n, 16)
        hits = np.array([sa_tts.reached(q, wide, s, optimum) for s in range(6)])
        assert 0 < hits.mean() < 1
        for r in (1, 2, 4, 16):
            direct = sum(
                solve_sa(q, AnnealSchedule(t_start, 0.01, 3 * q.n, r), seed=s).energy
                == optimum
                for s in range(6)
            )
            assert sa_tts.seeds_reached(hits, r) == direct


class TestWilsonLower:
    def test_known_values(self):
        z2 = sa_tts.Z_95 ** 2
        # All successes: n / (n + z^2).
        assert sa_tts.wilson_lower(1.0, 8) == pytest.approx(8 / (8 + z2), rel=1e-12)
        assert sa_tts.wilson_lower(0.5, 10) == pytest.approx(0.26927, abs=1e-5)
        assert sa_tts.wilson_lower(0.0, 100) == 0.0
        assert sa_tts.wilson_lower(0.3, 0) == 0.0

    def test_tightens_towards_the_estimate(self):
        bounds = [sa_tts.wilson_lower(0.02, n) for n in (256, 2048, 16384, 2**20)]
        assert bounds == sorted(bounds)
        assert 0.0195 < bounds[-1] < 0.02


class TestChoose:
    @staticmethod
    def record(f, r, t_run, p_restart, seeds_reached=8, sampled=4096):
        return {"sweeps_per_variable": f, "restarts": r, "seeds": 8,
                "seeds_reached": seeds_reached, "t_run_s": t_run,
                "p_restart": p_restart, "restarts_sampled": sampled,
                "p_run": sa_tts.run_success(p_restart, r)}

    def curves(self, overrides):
        base = {(f, r): self.record(f, r, f * r * 1e-6, 1.0)
                for f in sa_tts.SWEEPS_PER_VARIABLE for r in sa_tts.RESTARTS}
        out = {}
        for name in sa_tts.GUARDED:
            recs = dict(base)
            recs.update(overrides.get(name, {}))
            out[name] = list(recs.values())
        return out

    def test_least_summed_time_wins(self):
        assert sa_tts.choose(self.curves({}))["sweeps_per_variable"] == 10
        assert sa_tts.choose(self.curves({}))["restarts"] == 32

    def test_a_missed_seed_or_a_short_run_disqualifies_a_point(self):
        overrides = {"chain12": {
            (10, 32): self.record(10, 32, 0.0, 1.0, seeds_reached=7),
            (20, 32): self.record(20, 32, 0.0, 0.1),
            (10, 64): {"sweeps_per_variable": 10, "restarts": 64, "skipped": "x"},
        }}
        chosen = sa_tts.choose(self.curves(overrides))
        assert (chosen["sweeps_per_variable"], chosen["restarts"]) == (30, 32)

    def test_a_point_estimate_on_the_line_does_not_qualify(self):
        # p = 0.02 over 8 seeds x 256 restarts: p_run reads 0.994 at 256
        # restarts, but its 95% lower bound is 0.982; at 512 both clear.
        overrides = {"chain12": {
            (f, r): self.record(f, r, f * r * 1e-6, 0.02, sampled=2048)
            for f in sa_tts.SWEEPS_PER_VARIABLE for r in sa_tts.RESTARTS}}
        rec = overrides["chain12"][(10, 256)]
        assert rec["p_run"] >= sa_tts.TARGET > sa_tts.p_run_lower(rec)
        assert sa_tts.p_run_lower(overrides["chain12"][(10, 512)]) >= sa_tts.TARGET
        chosen = sa_tts.choose(self.curves(overrides))
        assert (chosen["sweeps_per_variable"], chosen["restarts"]) == (10, 512)

    def test_no_point_qualifies(self):
        overrides = {"reference": {
            (f, r): self.record(f, r, 1.0, 0.01)
            for f in sa_tts.SWEEPS_PER_VARIABLE for r in sa_tts.RESTARTS}}
        assert sa_tts.choose(self.curves(overrides)) is None
