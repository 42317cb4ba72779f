"""Cross-structure checks on shared instances, including full-width universes."""

import random
from collections import OrderedDict

import numpy as np
import pytest
from conftest import layer_keys, separators

from predsearch import (
    HashFront,
    KeyRangeError,
    KeySet,
    LayeredStructure,
    OutputDistribution,
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
        for x in (keys.keys[0], 3.5):
            with pytest.raises(TypeError, match="not a container"):
                x in trie  # no linear walk of the keys, and no silent False
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
    before = layer_keys(cascade)
    for q in (3.5, "7", -1, 1 << 8):
        for call in (cascade.predecessor, cascade.query_stats):
            with pytest.raises((ParameterError, KeyRangeError)):
                call(q)
    assert layer_keys(cascade) == before
    cascade.audit()


def _drop_the_root_entry(trie):
    del trie._levels[0][0]


def _wrong_root_entry(trie):
    """Point the root entry's min at the second key: the links and every deeper table stay a
    build's, and only level 0 is wrong."""
    keys = sorted(trie._next)
    trie._levels[0][0] = (keys[1], keys[-1])


def _wrong_max_at_one_level(trie):
    assert len(trie._levels) > 3  # the contract instance stores levels 0..8
    table = trie._levels[3]
    prefix, (lo, hi) = next(iter(table.items()))
    table[prefix] = (lo, hi - 1)


def _pop_deepest_level(trie):
    """Drop the deepest stored level: the level above it holds a prefix with two keys."""
    trie._levels.pop()


def _single_key_below_its_leaf(trie):
    """Store a key's (k, k) tuple again one level below its leaf level, where its path stops."""
    level, k = next((level, lo) for level, table in enumerate(trie._levels[:-1])
                    for lo, hi in table.values() if lo == hi)
    trie._levels[level + 1][k >> (trie.bits - level - 1)] = (k, k)


def _drop_a_leaf_entry(trie):
    """Delete the first (k, k) entry of the deepest level, where every entry is a key's leaf."""
    table = trie._levels[-1]
    del table[next(iter(table))]


def _copy_a_shared_tuple(trie):
    """Replace the first entry that shares its only child's tuple by an equal copy."""
    levels = trie._levels
    level, prefix = next((level, p) for level in range(1, len(levels) - 1)
                         for p, e in levels[level].items()
                         if e is levels[level + 1].get(p << 1)
                         or e is levels[level + 1].get(p << 1 | 1))
    levels[level][prefix] = tuple(list(levels[level][prefix]))


def _skip_a_key_in_the_links(trie):
    """Link the smallest key straight to the third, past the second, which stays stored."""
    first = min(trie._next)
    trie._next[first] = trie._next[trie._next[first]]


def _drop_a_level_weight(trie):
    trie._weights[0].pop()


def _root_probes_level_0(trie):
    """Probe level 0 first, where every query's prefix is stored, so no search reaches the
    levels the weights' root would have ruled out."""
    trie._tree = (0, *trie._tree[1:])


def _probe_a_neighbour_level_first(trie):
    """Probe the level next to the weights' choice first: in range and within the probe bound,
    but not the tree with the least expected 2^probes."""
    level, hit, miss = trie._tree
    trie._tree = (level - 1 if level > 1 else level + 1, hit, miss)


def _probe_a_neighbour_level_below_the_root(trie):
    """The root's hit subtree probes the level next to the weights' choice first, so the audit
    must descend below the root to find the first range whose node differs."""
    level, (hit_level, *hit_children), miss = trie._tree
    trie._tree = (level, (hit_level + 1, *hit_children), miss)


def _overfill_first_bucket(trie):
    bucket = trie._buckets[separators(trie)[0]]
    bucket.extend([bucket[-1]] * trie._max_size)


def _rekey_a_bucket_off_its_separator(trie):
    """Key the second bucket under its last key, while the routing trie keeps its separator."""
    bucket = trie._buckets.pop(separators(trie)[1])
    trie._buckets[bucket[-1]] = bucket


def _first_separator_not_zero(trie):
    """Re-key the first bucket under its first key, through the routing trie's own updates."""
    first = trie._buckets[0][0]
    trie._rep_trie.insert(first)
    trie._rep_trie.delete(0)
    trie._buckets[first] = trie._buckets.pop(0)


def _key_at_next_separator(trie):
    """Move the second bucket's first key, its separator, to the end of the first bucket."""
    seps = separators(trie)
    trie._buckets[seps[0]].append(trie._buckets[seps[1]].pop(0))


def _bucket_keys_out_of_order(trie):
    bucket = trie._buckets[separators(trie)[1]]
    bucket[0], bucket[1] = bucket[1], bucket[0]


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


def _wrong_front_answer(front):
    """Answer the smallest table key with the largest stored key."""
    front.table[min(front.table)] = max(front.fallback)


def _miscount_fallback_keys(front):
    front.fallback._size += 1


def _drop_a_threshold_key(front):
    """Delete the smallest table key: its queries still get the right answer, from the fallback,
    but miss the table that the paper's hit mass counts them in."""
    del front.table[min(front.table)]


def _drop_key_from_last_layer(cascade):
    layer = cascade.layers[-1]
    layer.delete(next(iter(layer)))


def _swap_a_last_layer_key_for_an_absent_one(cascade):
    """Same layer sizes, but the last layer holds a key the set does not."""
    layer = cascade.layers[-1]
    stored = {k for each in cascade.layers for k in each}
    layer.delete(next(iter(layer)))
    layer.insert(next(q for q in range(cascade.universe.size) if q not in stored))


def _front_key_also_in_the_last_layer(cascade):
    """Every key still in some layer, but one of them in two."""
    cascade.layers[-1].insert(next(iter(cascade.layers[0])))


def _clear_a_successor(cascade):
    """Point a key with a larger stored key at None, as if it were the largest."""
    k = next(k for k, s in cascade._succ.items() if s is not None)
    cascade._succ[k] = None


def _pointer_for_a_last_layer_key(cascade):
    """A correct successor pointer, but for a key of the last layer, which keeps none."""
    ks = sorted(k for layer in cascade.layers for k in layer)
    k = next(iter(cascade.layers[-1]))
    cascade._succ[k] = ks[ks.index(k) + 1]


def _relayer(cascade, layers):
    """Give cascade these layers, with the successor pointers a build computes for them."""
    cascade._build_layers([sorted(layer) for layer in layers])


def _swap_a_front_key_with_a_last_layer_key(cascade):
    """The partition and every pointer intact, but a key the rank puts in the front sits in the
    last layer, and one the rank puts there sits in the front."""
    layers = [list(layer) for layer in cascade.layers]
    layers[0][0], layers[-1][0] = layers[-1][0], layers[0][0]
    _relayer(cascade, layers)


def _move_a_layer_1_key_to_the_last_layer(cascade):
    """The partition and every pointer intact, but layer 1 holds one key below its capacity and
    the last layer one above."""
    layers = [list(layer) for layer in cascade.layers]
    layers[-1].append(layers[1].pop(0))
    _relayer(cascade, layers)


def _move_the_lowest_ranked_layer_1_key_to_the_last_layer(cascade):
    """The layers still in rank order, but layer 1 holds one key below its capacity."""
    layers = [list(layer) for layer in cascade.layers]
    k = min(layers[1], key=lambda k: (cascade.output.p_star(k), -k))
    layers[1].remove(k)
    layers[-1].append(k)
    _relayer(cascade, layers)


def _halve_every_p_star(cascade):
    """Every stored p* halved: the rank, and so every layer, is unchanged, but the masses are
    no longer the ones the distribution folds to."""
    out = cascade.output
    cascade.output = OutputDistribution(out.keys, out.masses / 2, out.bottom_mass)


def _mass_below_the_smallest_key(cascade):
    """Queries below every key given mass they do not have: no p* or rank changes."""
    out = cascade.output
    cascade.output = OutputDistribution(out.keys, out.masses, out.bottom_mass + 2.0 ** -30)


def _reverse_the_layer_1_recency_queue(ws):
    """After some queries, layer 1's queue runs freshest first: every answer is still right,
    but the next promotions shift layer 1's freshest keys down."""
    for q in range(0, ws.universe.size, 5):
        ws.predecessor(q)
    ws._recency[1] = OrderedDict(reversed(ws._recency[1].items()))


def _stamp_a_layer_1_key_fresher_than_layer_0(ws):
    """Layer 1's freshest key takes a fresh stamp, as an access would, but stays in layer 1: its
    queue still ascends, yet it is fresher than every key of layer 0."""
    last = next(reversed(ws._recency[1]))
    ws._recency[1][last] = next(ws._clock)


FRONT_TABLE_FAULTS = [(_overfill_front_table, "front table holds"),
                      (_float_front_key, "front table key 0.5 is not an int in the 8-bit universe"),
                      (_front_key_outside_universe, "front table key 256 is not an int in the 8-bit"),
                      (_wrong_front_answer, "front table maps 3 to 253, the fallback gives 3"),
                      (_miscount_fallback_keys, "buckets hold 100 keys, counted 101"),
                      (_drop_a_threshold_key,
                       "front table lacks key 3, whose probability meets the threshold")]

# broken invariants per structure, each with the audit message it must raise
BREAK_INVARIANTS = {
    "xfast": [(_drop_the_root_entry,
               r"level 0: prefix 0 maps to None, the leaf walk gives \(3, 253\)"),
              (_wrong_root_entry,
               r"level 0: prefix 0 maps to \(4, 253\), the leaf walk gives \(3, 253\)"),
              (_wrong_max_at_one_level, "level 3: prefix .* leaf walk"),
              (_pop_deepest_level, r"levels 0\.\.7 stored, the leaf walk needs 0\.\.8"),
              (_single_key_below_its_leaf,
               r"level \d+: prefix \d+ maps to \((\d+), \1\), the leaf walk gives None"),
              (_drop_a_leaf_entry, r"level 8: prefix \d+ maps to None, the leaf walk gives \((\d+), \1\)"),
              (_copy_a_shared_tuple, r"entries point at 200 distinct tuples, a build shares "
                                     r"2 \* 100 - 1 = 199"),
              (_skip_a_key_in_the_links, "leaf links do not walk the stored keys in ascending order"),
              (_drop_a_level_weight, "level weights for 8 and 9 levels, 9 stored"),
              (_root_probes_level_0,
               r"probe tree: levels 0\.\.8 probe level 0 first, the level weights give 6"),
              (_probe_a_neighbour_level_first,
               r"probe tree: levels 0\.\.8 probe level 5 first, the level weights give 6"),
              (_probe_a_neighbour_level_below_the_root,
               r"probe tree: levels 6\.\.8 probe level 8 first, the level weights give 7")],
    "yfast": [(_overfill_first_bucket, "bucket sizes .* outside"),
              (lambda y: _drop_the_root_entry(y._rep_trie),
               r"level 0: prefix 0 maps to None, the leaf walk gives \(0, 247\)"),
              (lambda y: _wrong_root_entry(y._rep_trie),
               r"level 0: prefix 0 maps to \(19, 247\), the leaf walk gives \(0, 247\)"),
              (_rekey_a_bucket_off_its_separator, "separators are not the bucket keys"),
              (_first_separator_not_zero, "first separator is 3, not 0"),
              (_key_at_next_separator, r"bucket 0 holds keys 3\.\.19 outside \[0, 19\)"),
              (_bucket_keys_out_of_order, "bucket keys do not ascend in separator order"),
              (_miscount_bucket_keys, "buckets hold 100 keys, counted 101"),
              (_flat_keys_out_of_order, "flat keys do not ascend"),
              (_flat_over_cap, r"flat list of 100 keys, above bits \* bits = 64"),
              (_both_forms, "exactly one of the flat list and the routed buckets"),
              (_buckets_at_flatten_floor, "bucket form over only 32 keys, at or below the flatten "
                                          "floor 32")],
    "hashfront-a": FRONT_TABLE_FAULTS,
    "hashfront-b": FRONT_TABLE_FAULTS,
    "layered": [(_drop_key_from_last_layer,
                 r"layer sizes \[4, 16, 79\] != capacities \[4, 16, 80\]"),
                (_swap_a_last_layer_key_for_an_absent_one,
                 r"layer 2 holds key 0, which the p\* rank puts in no layer"),
                (_front_key_also_in_the_last_layer,
                 r"layer sizes \[4, 16, 81\] != capacities \[4, 16, 80\]"),
                (lambda c: _flat_keys_out_of_order(c.layers[1]), "flat keys do not ascend"),
                (_clear_a_successor, r"successor pointer \d+ -> None, next key is \d+"),
                (_pointer_for_a_last_layer_key,
                 r"21 successor pointers, not one per front-layer key \(20\)"),
                (_swap_a_front_key_with_a_last_layer_key,
                 r"layer 0 lacks key 3, which the p\* rank puts there"),
                (_move_a_layer_1_key_to_the_last_layer,
                 r"layer sizes \[4, 15, 81\] != capacities \[4, 16, 80\]"),
                (_move_the_lowest_ranked_layer_1_key_to_the_last_layer,
                 r"layer sizes \[4, 15, 81\] != capacities \[4, 16, 80\]"),
                (_halve_every_p_star,
                 r"key 3 answers p\* 0\.25, the distribution gives 0\.5"),
                (_mass_below_the_smallest_key,
                 r"mass below key 3 is 9\.313225746154785e-10, the distribution gives 0\.0")],
    "layered-ws": [(lambda ws: ws._recency[0].popitem(last=False),
                    "layer 0 holds key 3, which the recency queues put in layer 2"),
                   (_reverse_the_layer_1_recency_queue,
                    r"key \d+ in layer 1 \(stamp -?\d+\) is not fresher than key \d+ in "
                    r"layer 1 \(stamp -?\d+\)"),
                   (_stamp_a_layer_1_key_fresher_than_layer_0,
                    r"key \d+ in layer 0 \(stamp -4\) is not fresher than key \d+ in layer 1 "
                    r"\(stamp 0\)"),
                   (_swap_a_last_layer_key_for_an_absent_one,
                    "layer 2 holds key 0, which the recency queues put in no layer"),
                   (_front_key_also_in_the_last_layer,
                    r"layer sizes \[4, 16, 81\] != capacities \[4, 16, 80\]"),
                   (_clear_a_successor, r"successor pointer \d+ -> None, next key is \d+"),
                   (_pointer_for_a_last_layer_key,
                    r"21 successor pointers, not one per front-layer key \(20\)")],
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
    # every structure takes the distribution it was built from; those built from none ignore it
    structure.audit(dist)
    for corrupt, message in BREAK_INVARIANTS[name]:
        structure = build_structure(name, keys, dist, universe, epsilon)
        structure.audit(dist)
        corrupt(structure)
        with pytest.raises(AssertionError, match=message):
            structure.audit(dist)
