import numpy as np
import pytest
import scipy.linalg as sla

from sympindex.core import j_matrix
from sympindex.sampling import difference_quotient, local_minima


def _minima(vals, skip=()):
    vals = np.asarray(vals, dtype=float)
    ts = np.linspace(0.0, 1.0, len(vals))

    def curve(t):
        return np.interp(t, ts, vals)

    return [i for i, _, _ in local_minima(curve, ts, vals, 1e-8, skip)]


class TestLocalMinima:
    def test_flat_run_gives_no_candidate(self):
        assert _minima([2.0, 2.0, 2.0, 2.0, 2.0]) == []
        # only the run's ends, each below an outer neighbour, are candidates
        assert _minima([3.0, 1.0, 1.0, 1.0, 3.0]) == [1, 3]

    def test_equal_pair_gives_both(self):
        assert _minima([3.0, 1.0, 1.0, 3.0]) == [1, 2]

    def test_strict_minimum_is_refined(self):
        ts = np.linspace(0.0, 1.0, 9)

        def curve(t):
            return (t - 0.3) ** 2

        ((i, t_star, s_star),) = local_minima(curve, ts, curve(ts), 1e-10, ())
        assert i == 2
        assert t_star == pytest.approx(0.3, abs=1e-9)
        assert s_star == pytest.approx(0.0, abs=1e-15)

    def test_skip_is_honoured(self):
        vals = [3.0, 1.0, 2.0, 0.5, 2.0]
        assert _minima(vals) == [1, 3]
        assert _minima(vals, skip={3}) == [1]
        assert _minima(vals, skip={1, 3}) == []


class TestDifferenceQuotient:
    S = np.array([[2.0, 0.5], [0.5, -1.0]])

    def _path(self):
        js = j_matrix(1) @ self.S
        return (lambda t: sla.expm(t * js)), js

    @pytest.mark.parametrize("side", [0.0, 1.0, -1.0])
    def test_matches_exponential_derivative(self, side):
        f, js = self._path()
        t = 0.4
        d = difference_quotient(f, t, 1e-5, side)
        assert np.linalg.norm(d - js @ f(t)) < 1e-8

    def test_one_sided_stays_on_its_side(self):
        f, js = self._path()
        seen = []

        def g(t):
            seen.append(t)
            return f(t)

        difference_quotient(g, 0.0, 1e-5, 1.0)
        assert min(seen) == 0.0
        seen.clear()
        difference_quotient(g, 1.0, 1e-5, -1.0)
        assert max(seen) == 1.0
