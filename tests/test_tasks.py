"""Task construction: partitions, ground-truth graphs, determinism."""

import numpy as np
import pytest

import scool
from scool.errors import ConfigurationError
from scool.models import ArchSpec
from scool.tasks import ANTIPODAL_PAIRS, gen_tasks, make_universe

from conftest import LocalModel, accuracy, grad, sample_class_data


class TestGenNoniidSbm:
    def test_group_partition_structure(self):
        assignment, _, _ = gen_tasks(12, 6, 2, 6, seed=0, num_groups=3)
        sets = {assignment.class_sets[i] for i in range(12)}
        assert len(sets) == 3
        union = set()
        for s in sets:
            assert len(s) == 2
            assert not (union & set(s))
            union |= set(s)
        assert union == set(range(6))
        # contiguous groups of four share identical sets
        for g in range(3):
            block = assignment.class_sets[4 * g : 4 * (g + 1)]
            assert len(set(block)) == 1
        # w* has three 4x4 diagonal blocks at 1/4
        expect = np.kron(np.eye(3), np.full((4, 4), 0.25))
        np.testing.assert_allclose(assignment.w_star, expect)

    def test_single_group_uniform(self):
        assignment, _, _ = gen_tasks(4, 6, 2, 4, seed=1, num_groups=1)
        np.testing.assert_allclose(assignment.w_star, 0.25)

    def test_deterministic(self):
        a1, tr1, te1 = gen_tasks(8, 6, 2, 6, seed=42, num_groups=2)
        a2, tr2, te2 = gen_tasks(8, 6, 2, 6, seed=42, num_groups=2)
        assert a1.class_sets == a2.class_sets
        np.testing.assert_array_equal(a1.w_star, a2.w_star)
        np.testing.assert_array_equal(tr1.features, tr2.features)
        np.testing.assert_array_equal(tr1.labels, tr2.labels)
        np.testing.assert_array_equal(te1.features, te2.features)

    def test_infeasible_configs(self):
        with pytest.raises(ConfigurationError):
            gen_tasks(12, 6, 2, 6, seed=0, num_groups=4)  # 4 groups x 2 classes > 6
        with pytest.raises(ConfigurationError):
            gen_tasks(10, 6, 2, 6, seed=0, num_groups=3)  # K not divisible
        with pytest.raises(ConfigurationError, match="num_groups must be >= 1"):
            gen_tasks(12, 6, 2, 6, seed=0, num_groups=0)  # not a ZeroDivisionError
        with pytest.raises(ConfigurationError, match="one training sample per class"):
            gen_tasks(12, 6, 2, 1, seed=0, num_groups=3)

    @pytest.mark.parametrize("num_groups", [3, None])
    def test_no_test_samples(self, num_groups):
        # refused, not built as an empty K x 0 test stack
        with pytest.raises(ConfigurationError, match="at least one test sample per client"):
            gen_tasks(6, 6, 2, 4, seed=0, num_groups=num_groups, test_samples_per_client=0)

    def test_antipodal_groups_align_with_pairs(self):
        assignment, _, _ = gen_tasks(12, 6, 2, 6, seed=0, placement=ANTIPODAL_PAIRS, d=8, num_groups=3)
        for cs in assignment.class_sets:
            assert cs[1] == cs[0] + 1 and cs[0] % 2 == 0


class TestGenNoniidRandom:
    def test_full_class_budget_gives_uniform_graph(self):
        assignment, _, _ = gen_tasks(5, 4, 4, 8, seed=0)
        np.testing.assert_allclose(assignment.w_star, 0.2)

    def test_distinct_singletons_give_identity(self):
        for seed in range(30):
            assignment, _, _ = gen_tasks(2, 50, 1, 2, seed=seed)
            if assignment.class_sets[0] != assignment.class_sets[1]:
                np.testing.assert_array_equal(assignment.w_star, np.eye(2))

    def test_collision_rate_matches_combinatorics(self):
        # P(two clients draw the same 2-subset of 4 classes) = 1/C(4,2) = 1/6
        hits = 0
        for seed in range(1000):
            assignment, _, _ = gen_tasks(2, 4, 2, 2, seed=seed)
            hits += assignment.class_sets[0] == assignment.class_sets[1]
        assert abs(hits / 1000 - 1.0 / 6.0) < 0.03

    def test_infeasible(self):
        with pytest.raises(ConfigurationError):
            gen_tasks(3, 4, 5, 4, seed=0)


class TestSampleClassData:
    def test_balanced_draws(self):
        uni = make_universe(4, 5, seed=0)
        train, test = sample_class_data(uni, (0, 2), 10, 6, seed=1)
        assert np.bincount(train.labels).tolist() == [5, 5]
        assert np.bincount(test.labels).tolist() == [3, 3]
        assert train.class_set == (0, 2)

    def test_remainder_goes_to_first_classes(self):
        uni = make_universe(4, 5, seed=0)
        train, _ = sample_class_data(uni, (1, 3), 5, 2, seed=1)
        assert np.bincount(train.labels).tolist() == [3, 2]

    def test_zero_noise_is_separable(self):
        uni = make_universe(3, 4, sigma=0.0, seed=2)
        train, test = sample_class_data(uni, (0, 1, 2), 9, 9, seed=3)
        # features equal the class means exactly
        for local, cls in enumerate(train.class_set):
            rows = train.features[train.labels == local]
            np.testing.assert_array_equal(rows, np.tile(uni.means[cls], (len(rows), 1)))
        arch = ArchSpec("softmax-regression", d=4, C=3)
        model = LocalModel(np.zeros(arch.n_params), arch)
        for _ in range(500):
            model.theta -= 1.0 * grad(model, train)
        assert accuracy(model, test) == 1.0

    def test_bit_for_bit_reproducible(self):
        uni = make_universe(4, 5, seed=0)
        a = sample_class_data(uni, (0, 1), 8, 4, seed=9)
        b = sample_class_data(uni, (0, 1), 8, 4, seed=9)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_empty_class_set(self):
        uni = make_universe(4, 5, seed=0)
        with pytest.raises(ConfigurationError):
            sample_class_data(uni, (), 4, 2, seed=0)

    def test_no_test_samples(self):
        # check_assignment's rule, not a ValueError from Dataset
        uni = make_universe(4, 5, seed=0)
        with pytest.raises(ConfigurationError, match="at least one test sample per client"):
            sample_class_data(uni, (0, 1), 4, 0, seed=0)


class TestUniverse:
    def test_orthonormal_means_have_expected_geometry(self):
        uni = make_universe(5, 8, sigma=1.0, separation=2.0, seed=4)
        norms = np.linalg.norm(uni.means, axis=1)
        np.testing.assert_allclose(norms, 2.0, atol=1e-9)
        gram = uni.means @ uni.means.T
        np.testing.assert_allclose(gram - np.diag(np.diag(gram)), 0.0, atol=1e-9)

    def test_antipodal_axes_sum_to_zero(self):
        uni = make_universe(6, 8, separation=2.0, seed=5, placement=ANTIPODAL_PAIRS)
        axes = np.array([uni.means[2 * t] - uni.means[2 * t + 1] for t in range(3)])
        np.testing.assert_allclose(axes.sum(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(axes, axis=1), 2.0, atol=1e-9)

    def test_antipodal_needs_even_classes(self):
        with pytest.raises(ConfigurationError):
            make_universe(5, 8, placement=ANTIPODAL_PAIRS)

    def test_dim_check(self):
        with pytest.raises(ConfigurationError):
            make_universe(6, 4, seed=0)

    def test_an_unknown_placement_is_refused(self):
        # validate() refuses it in a config; gen_tasks takes it directly
        with pytest.raises(ConfigurationError, match=r"^unknown mean placement 'bogus'$"):
            scool.gen_tasks(6, 6, 2, 4, 0, num_groups=3, placement="bogus")


class TestGroundTruthGraph:
    def test_row_stochastic_and_symmetric_support(self):
        assignment, _, _ = gen_tasks(10, 5, 2, 4, seed=7)
        w = assignment.w_star
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(w > 0, (w > 0).T)
        assert np.all(np.diag(w) > 0)

    def test_block_diagonal_under_group_sort(self):
        assignment, _, _ = gen_tasks(12, 6, 2, 4, seed=3, num_groups=3)
        order = np.argsort(assignment.group_labels, kind="stable")
        w = assignment.w_star[np.ix_(order, order)]
        labels = assignment.group_labels[order]
        for i in range(12):
            for j in range(12):
                assert (w[i, j] > 0) == (labels[i] == labels[j])

    def test_disjoint_groups_share_nothing(self):
        assignment, _, _ = gen_tasks(9, 9, 3, 6, seed=8, num_groups=3)
        for i in range(9):
            for j in range(9):
                if assignment.group_labels[i] != assignment.group_labels[j]:
                    assert not set(assignment.class_sets[i]) & set(assignment.class_sets[j])
