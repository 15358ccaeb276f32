import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquealg.mm import scatter_matrix
from cliquealg.sim import (CliqueWorld, DisjointnessError, RoutingViolation,
                           wide_value_units)


def uniform_route(world, subset, per_node):
    """Every node sends per_node elements, spread evenly over the subset."""
    n = len(subset)

    def build(view):
        idx = subset.index(view.node)
        for i in range(per_node):
            dst = subset[(idx + 1 + i % (n - 1)) % n] if n > 1 else view.node
            yield dst, ("u", view.node, i), 1

    return world.route(subset, "uniform", build)


def test_balanced_load_is_two_rounds():
    world = CliqueWorld(4)
    sub = world.all_nodes()

    def build(view):
        for i, dst in enumerate(sub):
            if dst != view.node:
                yield dst, ("x", view.node, i), np.ones(1, dtype=np.int64)
        # plus one more to a fixed neighbor, still within load n
        yield sub[(sub.index(view.node) + 1) % 4], ("y", view.node), 1

    rec = world.route(sub, "balanced", build)
    assert rec.rounds == 2


def test_overloaded_node_costs_more():
    world = CliqueWorld(4)
    sub = world.all_nodes()

    def build(view):
        if view.node in (1, 2):
            # node 4 receives 8 elements in total: two sequential balanced phases
            yield 4, ("z", view.node), np.ones(4, dtype=np.int64)

    rec = world.route(sub, "hot", build)
    assert rec.rounds == 4  # 2 * ceil(8 / 4)


def test_empty_request_set_free():
    world = CliqueWorld(4)
    rec = world.route(world.all_nodes(), "idle", lambda view: [])
    assert rec.rounds == 0 and rec.messages == 0


def test_self_messages_are_free():
    world = CliqueWorld(3)

    def build(view):
        yield view.node, ("self",), np.arange(10)

    rec = world.route(world.all_nodes(), "self", build)
    assert rec.rounds == 0 and rec.messages == 0
    assert list(world.stores[1][("self",)]) == list(range(10))


def test_lemma_bound_property_random_sets():
    rng = random.Random(0)
    for trial in range(200):
        n = rng.randrange(2, 12)
        world = CliqueWorld(n)
        sub = world.all_nodes()
        budget_out = {node: n for node in sub}
        budget_in = {node: n for node in sub}
        msgs = []
        while True:
            senders = [s for s in sub if budget_out[s] > 0]
            receivers = [r for r in sub if budget_in[r] > 0]
            if not senders or not receivers or rng.random() < 0.02:
                break
            src = rng.choice(senders)
            dst = rng.choice([r for r in receivers if r != src] or receivers)
            if dst == src:
                break
            msgs.append((src, dst))
            budget_out[src] -= 1
            budget_in[dst] -= 1
        if not msgs:
            continue

        def build(view, msgs=msgs):
            for i, (src, dst) in enumerate(msgs):
                if src == view.node:
                    yield dst, ("m", i), 1

        rec = world.route(sub, "rand", build)
        assert rec.rounds == 2
        assert rec.messages == len(msgs)


def test_routing_violation_outside_subset():
    world = CliqueWorld(4)

    def build(view):
        yield 4, ("bad",), 1

    with pytest.raises(RoutingViolation):
        world.route((1, 2, 3), "bad", build)


def test_duplicate_delivery_key_rejected():
    world = CliqueWorld(3)

    def build(view):
        yield 2, ("dup",), 1

    with pytest.raises(RoutingViolation):
        world.route(world.all_nodes(), "dup", build)


def test_run_local_identity_and_isolation():
    world = CliqueWorld(3)
    world.stores[1]["x"] = 5

    def compute(view):
        # a view only reaches its own store
        if view.node == 1:
            assert view.get("x") == 5
        else:
            assert view.get("x") is None
        view.put("y", view.node * 2)

    world.run_local(world.all_nodes(), "iso", compute)
    assert [world.stores[i]["y"] for i in (1, 2, 3)] == [2, 4, 6]
    assert world.ledger.total_rounds == 0


def test_run_local_scaling_example():
    world = CliqueWorld(4)
    for i in (1, 2, 3, 4):
        world.stores[i]["row"] = np.full(4, i, dtype=np.int64)

    world.run_local(world.all_nodes(), "scale",
                    lambda view: view.put("row", view.get("row") * 2))
    for i in (1, 2, 3, 4):
        assert list(world.stores[i]["row"]) == [2 * i] * 4
    world.run_local((), "noop", lambda view: None)
    assert world.ledger.total_rounds == 0


def test_parallel_phases_max_semantics():
    world = CliqueWorld(8)

    def cost(rounds):
        def prog():
            world.ledger.phase("work", 4, rounds, rounds * 4)
            return rounds
        return prog

    results = world.parallel_phases("par", [((1, 2, 3, 4), cost(4)), ((5, 6, 7, 8), cost(6))])
    assert results == [4, 6]  # each branch's result, in branch order
    assert world.ledger.total_rounds == 6
    assert world.ledger.total_messages == 40

    world2 = CliqueWorld(4)
    world2.parallel_phases("par", [((1, 2), lambda: None),
                                   ((3, 4), cost_phase(world2, 5))])
    assert world2.ledger.total_rounds == 5


def cost_phase(world, rounds):
    def prog():
        world.ledger.phase("work", 2, rounds, 0)
    return prog


def test_parallel_phases_disjointness():
    world = CliqueWorld(4)
    with pytest.raises(DisjointnessError):
        world.parallel_phases("bad", [((1, 2), lambda: None), ((2, 3), lambda: None)])


def test_node_rng_determinism_and_spread():
    world = CliqueWorld(100, seed=42)
    a = world.node_rng("phase", 3)
    b = world.node_rng("phase", 3)
    assert [a.randrange(1 << 30) for _ in range(64)] == \
           [b.randrange(1 << 30) for _ in range(64)]
    streams = [tuple(world.node_rng("phase", node).randrange(1 << 30)
                     for _ in range(64)) for node in range(1, 101)]
    assert len(set(streams)) == 100
    other = CliqueWorld(100, seed=43).node_rng("phase", 3)
    assert [other.randrange(1 << 30) for _ in range(8)] != \
           [world.node_rng("phase", 3).randrange(1 << 30) for _ in range(8)]


def test_ledger_export_forms():
    world = CliqueWorld(4)
    with world.ledger.group("outer"):
        world.ledger.phase("a", 4, 2, 16)
        world.ledger.phase("b", 4, 4, 8)
    text = world.ledger.to_text()
    assert "phase=outer/a subset=4 rounds=2 messages=16" in text
    assert "total rounds=6 messages=24" in text
    assert dict(world.ledger.leaves())["outer/a"].rounds == 2


def test_frame_pops_what_it_made_and_keeps_what_it_is_told():
    # a kept matrix keeps its rows and columns and a kept key stays at every
    # node that holds it; a key from before the frame stays, even overwritten.
    # The pops add no ledger line.
    world = CliqueWorld(3)
    sub = world.all_nodes()
    world.stores[1]["old"] = 1
    with world.frame() as keep:
        kept = scatter_matrix(world, sub, np.eye(3, dtype=np.int64), 5)
        scatter_matrix(world, sub, np.eye(3, dtype=np.int64), 5)
        world.run_local(sub, "put", lambda view: view.put("mine", view.node))
        world.stores[1]["old"] = 2
        world.stores[2]["scratch"] = 0
        keep(kept, "mine")
    assert world.stores[1]["old"] == 2
    for pos, node in enumerate(sub):
        assert set(world.stores[node]) == ({kept.row_key(pos), kept.col_key(pos), "mine"}
                                           | ({"old"} if node == 1 else set()))
    assert [path for path, _ in world.ledger.leaves()] == ["put"]


def test_nested_frames_keep_only_what_each_level_keeps():
    world = CliqueWorld(2)
    store = world.stores[1]
    with world.frame() as keep_outer:
        store["outer"] = 0
        with world.frame() as keep:
            store["inner"] = store["passed"] = store["temp"] = 0
            keep("inner", "passed")
        assert set(store) == {"outer", "inner", "passed"}
        keep_outer("passed")
    assert set(store) == {"passed"}


def test_frame_pops_its_keys_when_the_body_raises():
    world = CliqueWorld(2)
    with pytest.raises(RuntimeError, match="inside"):
        with world.frame() as keep:
            world.stores[2]["made"] = world.stores[2]["kept"] = 0
            keep("kept")
            raise RuntimeError("inside")
    assert world.stores == [{}, {}, {"kept": 0}]


def test_wide_value_units():
    # at n = 16 one message carries 8 bits
    assert wide_value_units(1, 16) == 1
    assert wide_value_units(8, 16) == 1
    assert wide_value_units(9, 16) == 2
    assert wide_value_units(17, 16) == 3


def test_route_width_charging():
    world = CliqueWorld(2)

    def build(view):
        if view.node == 1:
            yield 2, ("wide",), np.arange(4)

    rec = world.route(world.all_nodes(), "wide", build, width=3)
    assert rec.messages == 12
    assert rec.rounds == 2 * -(-12 // 2)


# ------------------------------------------------------------- block sends

def test_block_send_delivers_rows_and_charges_like_messages():
    world = CliqueWorld(4)

    def build(view):
        if view.node == 1:
            yield np.array([2, 3, 4]), ("blk",), np.arange(6).reshape(3, 2)

    rec = world.route(world.all_nodes(), "block", build)
    assert rec.messages == 6 and rec.rounds == 2 * -(-6 // 4)
    assert [list(world.stores[node][("blk",)]) for node in (2, 3, 4)] == [[0, 1], [2, 3], [4, 5]]


def test_block_rows_are_copies():
    world = CliqueWorld(3)
    payload = np.zeros((2, 3), dtype=np.int64)

    def build(view):
        if view.node == 1:
            yield np.array([2, 3]), "k", payload

    world.route(world.all_nodes(), "copy", build)
    payload[:] = 7
    assert not world.stores[2]["k"].any() and not world.stores[3]["k"].any()


def test_block_destination_outside_subset_rejected():
    world = CliqueWorld(4)

    def build(view):
        if view.node == 1:
            yield np.array([2, 4]), ("bad",), np.ones((2, 1), dtype=np.int64)

    with pytest.raises(RoutingViolation):
        world.route((1, 2, 3), "bad", build)


def test_block_repeated_destination_rejected():
    world = CliqueWorld(4)

    def build(view):
        if view.node == 1:
            yield np.array([2, 3, 2]), ("rep",), np.ones((3, 2), dtype=np.int64)

    with pytest.raises(RoutingViolation):
        world.route(world.all_nodes(), "rep", build)


def test_block_and_single_send_collision_rejected():
    world = CliqueWorld(4)

    def build(view):
        if view.node == 1:
            yield np.array([2, 3]), ("mix",), np.ones((2, 2), dtype=np.int64)
        if view.node == 4:
            yield 3, ("mix",), np.ones(2, dtype=np.int64)

    with pytest.raises(RoutingViolation):
        world.route(world.all_nodes(), "mix", build)


def test_block_self_rows_are_free():
    world = CliqueWorld(3)

    def build(view):
        yield np.array([view.node, view.node % 3 + 1]), ("s", view.node), np.ones((2, 5))

    rec = world.route(world.all_nodes(), "self", build)
    assert rec.messages == 15 and rec.rounds == 2 * -(-5 // 3)
    assert all(world.stores[node][("s", node)].size == 5 for node in (1, 2, 3))


def test_zero_width_blocks_are_skipped():
    world = CliqueWorld(3)

    def build(view):
        yield np.array([1, 2, 3]), ("z",), np.zeros((3, 0), dtype=np.int64)
        yield np.zeros(0, dtype=np.int64), ("e",), np.zeros((0, 4), dtype=np.int64)

    rec = world.route(world.all_nodes(), "empty", build)
    assert rec.rounds == 0 and rec.messages == 0
    assert not any(world.stores[node] for node in (1, 2, 3))


@st.composite
def message_sets(draw):
    n = draw(st.integers(1, 7))
    width = draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n), st.integers(0, 3)),
                          unique_by=lambda m: (m[1], m[2]), max_size=40))
    size = draw(st.integers(0, 3))
    return n, width, size, pairs


@settings(max_examples=150, deadline=None)
@given(message_sets())
def test_blocks_and_single_sends_agree(case):
    """The same messages sent one by one and grouped into blocks per
    (source, key) give the same phase record and the same stores."""
    n, width, size, pairs = case
    outcomes = []
    for as_blocks in (False, True):
        world = CliqueWorld(n)

        def build(view):
            mine = [(dst, key) for src, dst, key in pairs if src == view.node]
            if not as_blocks:
                for dst, key in mine:
                    yield dst, key, np.full(size, 100 * view.node + dst, dtype=np.int64)
                return
            for key in sorted({key for _, key in mine}):
                dsts = np.array([dst for dst, k in mine if k == key])
                rows = np.repeat(100 * view.node + dsts[:, None], size, axis=1)
                yield dsts, key, rows

        rec = world.route(world.all_nodes(), "agree", build, width=width)
        stores = [{key: list(val) for key, val in store.items()} for store in world.stores]
        outcomes.append((rec.rounds, rec.messages, stores))
    assert outcomes[0] == outcomes[1]
