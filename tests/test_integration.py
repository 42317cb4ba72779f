"""Cross-structure checks on shared instances, including full-width universes."""

import random

import numpy as np
import pytest

from predsearch import (
    HashFront,
    KeyRangeError,
    KeySet,
    LayeredStructure,
    ParameterError,
    ThresholdMode,
    UniverseSpec,
    WeightedDistribution,
    WorkingSetLayered,
    WorkloadSpec,
    XFastTrie,
    YFastTrie,
    generate_distribution,
    oracle_predecessor,
    sample_keys,
)
from predsearch.cli import STRUCTURES, build_structure


def all_structures(keys, dist, universe):
    return [
        XFastTrie(keys, universe),
        YFastTrie(keys, universe),
        HashFront(keys, dist, universe, ThresholdMode.mode_a(0.5)),
        HashFront(keys, dist, universe, ThresholdMode.mode_b(0.5)),
        LayeredStructure(keys, dist, universe),
        WorkingSetLayered(keys, universe),
    ]


def test_sixty_four_bit_universe():
    universe = UniverseSpec(64)
    keys = sample_keys(universe, 500, seed=42)
    dist = generate_distribution(WorkloadSpec(kind="zipf", support=keys.keys, s=1.2))
    rnd = random.Random(7)
    queries = ([rnd.randrange(2 ** 64) for _ in range(2000)]
               + list(keys.keys[:50]) + [0, 2 ** 64 - 1])
    for structure in all_structures(keys, dist, universe):
        for q in queries:
            assert structure.predecessor(q) == oracle_predecessor(keys, q), type(structure)


@pytest.mark.parametrize("bits,n", [(8, 1), (8, 40), (13, 700)])
def test_structures_agree_on_shared_instance(bits, n):
    universe = UniverseSpec(bits)
    rnd = random.Random(bits * 1000 + n)
    keys = KeySet(sorted(rnd.sample(range(universe.size), n)))
    dist = generate_distribution(
        WorkloadSpec(kind="geometric", support=keys.keys, ratio=0.7))
    structures = all_structures(keys, dist, universe)
    for _ in range(3000):
        q = rnd.randrange(universe.size)
        expected = oracle_predecessor(keys, q)
        for structure in structures:
            assert structure.predecessor(q) == expected, (type(structure), q)


@pytest.mark.parametrize("bits", [8, 64])
def test_query_type_and_range_errors(bits):
    """Every structure rejects a non-integer query with a typed error, not a stray TypeError."""
    universe = UniverseSpec(bits)
    keys = sample_keys(universe, 40, seed=bits)
    dist = generate_distribution(WorkloadSpec(kind="zipf", support=keys.keys, s=1.0))
    for structure in all_structures(keys, dist, universe):
        with pytest.raises(ParameterError, match="key must be an int, got 3.5 of type float"):
            structure.predecessor(3.5)
        for q in (-1, 1 << bits):
            with pytest.raises(KeyRangeError):
                structure.predecessor(q)
        for k in keys.keys[::7]:
            assert structure.predecessor(np.uint64(k)) == k, type(structure)


@pytest.mark.parametrize("bits", [8, 64])
def test_update_and_membership_guards(bits):
    """query_stats, insert and delete check the key as predecessor does."""
    universe = UniverseSpec(bits)
    keys = sample_keys(universe, 40, seed=bits)
    for trie in (XFastTrie(keys, universe), YFastTrie(keys, universe)):
        for call in (trie.query_stats, trie.insert, trie.delete):
            with pytest.raises(ParameterError, match="key must be an int, got 3.5 of type float"):
                call(3.5)
            for q in (-1, 1 << bits):
                with pytest.raises(KeyRangeError, match=f"key {q} outside {bits}-bit universe"):
                    call(q)
        assert list(trie) == list(keys.keys)
        trie.audit()
        for k in keys.keys[::7]:
            assert trie.query_stats(np.uint64(k)).answer == k


@pytest.mark.parametrize("mode", [ThresholdMode.mode_a(0.5), ThresholdMode.mode_b(0.5)])
def test_front_table_hits_take_exact_ints_only(mode):
    """A float, bool or NumPy query equal to a table key is checked by the fallback, not looked up."""
    universe = UniverseSpec(8)
    keys = KeySet([0, 3, 40, 200])
    front = HashFront(keys, WeightedDistribution({1: 8.0, 50: 4.0, 7: 1.0}), universe, mode)
    for k in (1, 50):
        assert k in front.table
        for call in (front.predecessor, front.query_stats):
            with pytest.raises(ParameterError, match=f"key must be an int, got {float(k)} of type float"):
                call(float(k))
            with pytest.raises(ParameterError, match="of type list"):
                call([k])  # unhashable: never reaches the table
        assert front.predecessor(np.uint64(k)) == oracle_predecessor(keys, k)
        assert front.query_stats(np.uint64(k)).answer == oracle_predecessor(keys, k)
    assert front.predecessor(True) == front.query_stats(True).answer == oracle_predecessor(keys, 1)
    front.audit()


def test_rejected_query_leaves_working_set_unchanged():
    """The first layer checks the key before any layer answers or anything is promoted."""
    universe = UniverseSpec(8)
    keys = sample_keys(universe, 100, seed=8)
    cascade = WorkingSetLayered(keys, universe)
    for q in (250, 17, 250, 90):
        cascade.predecessor(q)
    before = [tuple(layer) for layer in cascade.layers]
    for q in (3.5, "7", -1, 1 << 8):
        for call in (cascade.predecessor, cascade.query_stats):
            with pytest.raises((ParameterError, KeyRangeError)):
                call(q)
    assert [tuple(layer) for layer in cascade.layers] == before
    cascade.audit()


def _stale_root(trie):
    """Delete the minimum but keep the root entry it replaced."""
    root = trie._root
    trie.delete(next(iter(trie)))
    trie._root = root


def _wrong_max_at_one_level(trie):
    assert len(trie._levels) > 3  # the contract instance stores levels 0..8
    table = trie._levels[3]
    prefix, (lo, hi) = next(iter(table.items()))
    table[prefix] = (lo, hi - 1)


def _pop_deepest_level(trie):
    """Drop the deepest stored level: the level above it holds a prefix with two keys."""
    trie._levels.pop()


def _overfill_first_bucket(trie):
    bucket = trie._buckets[trie.representatives()[0]]
    bucket.extend([bucket[-1]] * trie._max_size)


def _rep_above_bucket_minimum(trie):
    trie._buckets[trie.representatives()[-1]].pop(0)


def _miscount_bucket_keys(trie):
    trie._size += 1


def _flat_keys_out_of_order(trie):
    """Swap two keys of the flat list, after deleting down to 24 keys if the trie has buckets."""
    if trie._flat is None:
        for k in list(trie)[24:]:
            trie.delete(k)  # at most 8 * 8 // 2 keys: the trie is flat again
    flat = trie._flat
    flat[0], flat[1] = flat[1], flat[0]


def _flat_over_cap(trie):
    trie._flat, trie._buckets, trie._rep_trie = list(trie), None, None


def _both_forms(trie):
    trie._flat = list(trie)


def _buckets_at_flatten_floor(trie):
    """Cut 32 keys (8 * 8 // 2) into buckets, as if a delete had not made the trie flat."""
    trie._to_buckets(list(trie)[:32])


def _overfill_front_table(front):
    capacity = front.mode.table_capacity(front.universe.bits)
    front.table.update((q, None) for q in range(int(capacity) + 1))


def _float_front_key(front):
    front.table[0.5] = None


def _front_key_outside_universe(front):
    front.table[front.universe.size] = None


def _drop_key_from_last_layer(cascade):
    layer = cascade.layers[-1]
    layer.delete(next(iter(layer)))


FRONT_TABLE_FAULTS = [(_overfill_front_table, "front table holds"),
                      (_float_front_key, "front table key 0.5 is not an int in the 8-bit universe"),
                      (_front_key_outside_universe, "front table key 256 is not an int in the 8-bit")]

# broken invariants per structure, each with the audit message it must raise
BREAK_INVARIANTS = {
    "xfast": [(_stale_root, "stale root"), (_wrong_max_at_one_level, "level 3: prefix .* leaf walk"),
              (_pop_deepest_level, "deepest stored level 7 holds .* prefixes for 100 keys")],
    "yfast": [(_overfill_first_bucket, "bucket sizes .* outside"),
              (lambda y: _stale_root(y._rep_trie), "stale root"),
              (_rep_above_bucket_minimum, "representative .* does not lead its bucket"),
              (_miscount_bucket_keys, "buckets hold 100 keys, counted 101"),
              (_flat_keys_out_of_order, "flat keys do not ascend"),
              (_flat_over_cap, r"flat list of 100 keys, above bits \* bits = 64"),
              (_both_forms, "exactly one of the flat list and the routed buckets"),
              (_buckets_at_flatten_floor, "bucket form over only 32 keys, at or below the flatten "
                                          "floor 32")],
    "hashfront-a": FRONT_TABLE_FAULTS,
    "hashfront-b": FRONT_TABLE_FAULTS,
    "layered": [(_drop_key_from_last_layer, "layers do not partition the key set"),
                (lambda c: _flat_keys_out_of_order(c.layers[1]), "flat keys do not ascend")],
    "layered-ws": [(lambda ws: ws._recency[0].popitem(last=False), r"occupancy \[3, 16, 80\]")],
}


@pytest.mark.parametrize("name", STRUCTURES)
def test_contract_answers_and_audit(name):
    """predecessor and query_stats agree with the oracle; audit passes, then catches each fault."""
    universe = UniverseSpec(8)
    keys = sample_keys(universe, 100, seed=8)  # above 8 * 8 keys, so y-fast buckets
    dist = generate_distribution(WorkloadSpec(kind="geometric", support=keys.keys, ratio=0.5))
    epsilon = 0.5 if name.startswith("hashfront") else None
    structure = build_structure(name, keys, dist, universe, epsilon)
    for q in range(universe.size):
        expected = oracle_predecessor(keys, q)
        assert structure.predecessor(q) == expected, q
        assert structure.query_stats(q).answer == expected, q
    structure.audit()
    for corrupt, message in BREAK_INVARIANTS[name]:
        structure = build_structure(name, keys, dist, universe, epsilon)
        structure.audit()
        corrupt(structure)
        with pytest.raises(AssertionError, match=message):
            structure.audit()
