"""Differential tests for the encoded all-pairs answer.

:meth:`QuerySession.answer_json` sorts in id space, joins cached
per-node names and memoizes the text per (plan, store version); the
server sends it inside a hand-assembled body.  Every one of those steps
is checked here against the plain path it replaces: ``naive_ans``
sorted by :func:`~repro.rpq.evaluation.sort_pairs`, stringified and
passed through ``json.dumps``.  Node names include quotes, backslashes,
non-ASCII and control characters, and non-str hashables.
"""

from __future__ import annotations

import http.client
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpq import RPQViews, Theory, naive_ans
from repro.rpq.evaluation import sort_pairs
from repro.rpq.views import view_graph
from repro.service import (
    MaterializedViewStore,
    QuerySession,
    RPQServer,
    TenantConfig,
    run_in_thread,
)

NODES = (
    "plain",
    'quo"te',
    "back\\slash",
    "café",
    "雪",
    "tab\tnew\nline",
    "\x00\x1f",
    "\U0001f600",
    0,
    17,
    -3,
    ("t", 1),
    (2, ("x", "é")),
)
VIEWS = {"va": "a", "vb": "b"}
THEORY = Theory.trivial({"a", "b"})
QUERIES = ("a", "a.b", "a.b*", "(a+b).b", "(a.b)*")


def _oracle_text(session: QuerySession, query: str) -> str:
    """The plain path: naive_ans over a snapshot, sort_pairs, str, dumps."""
    plan = session.plan(query)
    store_graph = session.store.graph
    _version, extensions = session.store.snapshot()
    graph = view_graph(extensions)
    # Nodes stay interned after their last tuple goes (they keep their
    # epsilon answers), so the oracle graph carries the whole universe.
    for node_id in range(store_graph.num_nodes):
        graph.add_node(store_graph.node_at(node_id))
    pairs = sort_pairs(store_graph, naive_ans(plan.automaton, graph))
    return json.dumps([[str(x), str(y)] for x, y in pairs], separators=(",", ":"))


_tuple = st.tuples(
    st.sampled_from(sorted(VIEWS)),
    st.sampled_from(NODES),
    st.sampled_from(NODES),
)
_batch = st.lists(st.tuples(st.booleans(), _tuple), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(
    initial=st.lists(_tuple, max_size=12),
    batches=st.lists(_batch, max_size=5),
    backend=st.sampled_from(("bigint", "numpy")),
)
def test_answer_json_equals_naive_oracle_under_updates(initial, batches, backend):
    extensions: dict = {symbol: [] for symbol in VIEWS}
    for symbol, source, target in initial:
        extensions[symbol].append((source, target))
    store = MaterializedViewStore(extensions)
    session = QuerySession(store, RPQViews(VIEWS), THEORY, backend=backend)
    for query in QUERIES:
        assert session.answer_json(query) == _oracle_text(session, query)
    for batch in batches:
        for insert, (symbol, source, target) in batch:
            if insert:
                store.add(symbol, source, target)
            else:
                store.remove(symbol, source, target)
        for query in QUERIES:
            assert session.answer_json(query) == _oracle_text(session, query)
            assert json.loads(session.answer_json(query)) == [
                [str(x), str(y)] for x, y in session.answer_sorted(query)
            ]


def test_answer_json_memo_is_reused_between_writes_and_dropped_by_one():
    store = MaterializedViewStore({"va": [("u", 'v"')], "vb": [('v"', 1)]})
    session = QuerySession(store, RPQViews(VIEWS), THEORY)
    first = session.answer_json("a.b")
    assert first == '[["u","1"]]'
    hits = session.stats["answer_memo_hits"]
    again = session.answer_json("a.b")
    assert again is first
    assert session.stats["answer_memo_hits"] == hits + 1

    store.add("va", "w", 'v"')
    changed = session.answer_json("a.b")
    assert changed == '[["u","1"],["w","1"]]'
    assert changed == _oracle_text(session, "a.b")
    assert session.answer_json("a.b") is changed


def test_answer_json_not_memoized_when_store_moves_mid_answer():
    store = MaterializedViewStore({"va": [("u", "v")], "vb": [("v", "z")]})
    session = QuerySession(store, RPQViews(VIEWS), THEORY)
    evaluate = session._evaluate

    def evaluate_then_write(*calls):
        # A write plus a re-entrant request inside the sweep: the request
        # re-syncs the memos to the new version before answer() returns
        # the answers of the old one.
        session._evaluate = evaluate
        result = evaluate(*calls)
        store.add("va", "w", "v")
        session.answer_pair("a.b", "w", "z")
        return result

    session._evaluate = evaluate_then_write
    stale = session.answer_json("a.b")
    assert stale == '[["u","z"]]'
    assert session.answer_json("a.b") == '[["u","z"],["w","z"]]'


def test_server_all_pairs_bodies_equal_canonical_json_dumps():
    extensions = {
        "va": [(str(x), str(y)) for x, y in zip(NODES, NODES[1:])],
        "vb": [(str(x), str(y)) for x, y in zip(NODES[1:], NODES[3:])],
    }
    server = RPQServer(
        {"t": TenantConfig(views=VIEWS, theory=THEORY, extensions=extensions)}
    )
    handle = run_in_thread(server)
    connection = http.client.HTTPConnection(server.host, server.port, timeout=60)

    def post(path: str, payload: dict) -> bytes:
        connection.request(
            "POST", path, body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = response.read()
        assert response.status == 200, body
        return body

    try:
        bodies = []
        for step in range(3):
            for query in QUERIES:
                bodies.append(post("/tenants/t/query", {"query": query}))
            post(
                "/tenants/t/update",
                {"ops": [{"op": "insert", "symbol": "vb",
                          "source": "ué\"", "target": f"n{step}"}]},
            )
            post(
                "/tenants/t/update",
                {"ops": [{"op": "insert", "symbol": "va",
                          "source": str(NODES[0]), "target": "ué\""}]},
            )
    finally:
        connection.close()
        handle.stop()
    assert len(bodies) == 3 * len(QUERIES)
    for body in bodies:
        payload = json.loads(body)
        assert payload["mode"] == "all"
        assert body == json.dumps(
            payload, separators=(",", ":"), sort_keys=True
        ).encode()
