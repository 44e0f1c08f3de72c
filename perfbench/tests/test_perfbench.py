"""Tests of the benchmark's own logic: seeded streams, span arithmetic,
and the answer check.  Run with ``PYTHONPATH=src python -m pytest
perfbench/tests``."""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import loadgen  # noqa: E402
from answers import mismatches  # noqa: E402
from host import IdlePoll, steal_share  # noqa: E402
from spans import SpanRecorder, covered, percentile, self_times  # noqa: E402


# -- seeded inputs ------------------------------------------------------------


def test_same_seed_gives_identical_streams():
    transfer, outside = [0, 2, 4, 6], [1, 3, 5]
    take = loadgen.take
    for seed in (0, 7):
        assert take(loadgen.table_commute(seed, transfer), 500) == take(
            loadgen.table_commute(seed, transfer), 500
        )
        assert take(loadgen.full_search(seed, outside, 8), 200) == take(
            loadgen.full_search(seed, outside, 8), 200
        )
        assert take(loadgen.zoo_mix(seed, 8, outside), 50) == take(
            loadgen.zoo_mix(seed, 8, outside), 50
        )
        assert take(loadgen.table_uniform(seed, transfer), 200) == take(
            loadgen.table_uniform(seed, transfer), 200
        )
    assert take(loadgen.table_commute(0, transfer), 500) != take(
        loadgen.table_commute(1, transfer), 500
    )
    assert take(loadgen.zoo_mix(0, 8, outside), 50) != take(
        loadgen.zoo_mix(1, 8, outside), 50
    )


def test_stream_has_no_end_and_reads_the_same_however_drawn():
    transfer = [0, 2, 4, 6]
    expected = loadgen.take(loadgen.table_commute(3, transfer), 2000)
    stream = loadgen.Stream(loadgen.table_commute(3, transfer), prefetch=10)
    assert len(stream) == 10
    # Reading past the prefetched items draws more, in order.
    assert stream[1999] == expected[1999]
    assert stream.prefix(2000) == expected
    assert len(stream) == 2000


def test_stream_draws_in_order_from_several_threads():
    stream = loadgen.Stream(loadgen.table_uniform(0, [0, 2, 4, 6]))
    expected = loadgen.take(loadgen.table_uniform(0, [0, 2, 4, 6]), 4000)
    threads = [
        threading.Thread(target=lambda k=k: [stream[i] for i in range(k, 4000, 4)])
        for k in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert stream.prefix(4000) == expected


def test_never_repeating_streams_stop_when_their_keys_run_out():
    uniform = loadgen.table_uniform(0, [0, 1])
    space = 2 * (loadgen.DAY_WINDOW[1] - loadgen.DAY_WINDOW[0])
    assert len({(r[0][1], r[0][2]["departure"]) for r in loadgen.take(uniform, space)}) == space
    with pytest.raises(RuntimeError, match="distinct keys"):
        next(uniform)


def test_post_schedule_needs_a_batch_per_post():
    with pytest.raises(ValueError, match="3 posts scheduled"):
        loadgen.post_delays(None, [((), 0)], [0.0, 1.0, 2.0], errors=())


def test_same_seed_gives_identical_delay_batches():
    from repro.synthetic.instances import make_instance

    timetable = make_instance("oahu", "tiny")
    first = loadgen.delay_batches(timetable, 3, 6)
    assert first == loadgen.delay_batches(timetable, 3, 6)
    assert first != loadgen.delay_batches(timetable, 4, 6)
    assert all(
        1 <= len(delays) <= loadgen.MAX_TRAINS_PER_BATCH for delays, _ in first
    )


def test_streams_keep_their_regime_properties():
    transfer, outside = [0, 2, 4, 6], [1, 3, 5]
    take = loadgen.take
    for (shape, (s, t), kw), in take(loadgen.table_commute(0, transfer), 300):
        assert shape == "journey" and s in transfer and t in transfer and s != t
        assert kw["departure"] in loadgen.RUSH_GRID
    uniform = [r[0] for r in take(loadgen.table_uniform(0, transfer), 300)]
    assert len({(a, kw["departure"]) for _, a, kw in uniform}) == 300
    assert all(s in transfer and t in transfer and s != t for _, (s, t), _ in uniform)
    full = take(loadgen.full_search(0, outside, 8), 300)
    keys = [(r[0][1], r[0][2]["departure"]) for r in full]
    assert len(set(keys)) == len(keys)  # never repeats
    assert all(s in outside and s != t for (s, t), _ in keys)
    for mc, mt, via in take(loadgen.zoo_mix(0, 8, outside), 40):
        assert mc[0] == "multicriteria" and mt[0] == "min_transfers"
        assert mc[1:] == mt[1:]  # same (source, target, departure)
        assert via[1][0] == mc[1][0] and via[1][2] == mc[1][1]
        assert via[1][1] in outside and len(set(via[1])) == 3


def test_key_repeat_share():
    j = loadgen.journey
    assert loadgen.key_repeat_share([j(0, 1, 5), j(0, 1, 5), j(1, 0, 5), j(0, 1, 5)]) == 0.5


def test_steal_share_counts_only_the_steal_column():
    before = [100, 0, 50, 800, 10, 0, 5, 35, 0, 0]
    after = [160, 0, 70, 900, 10, 0, 5, 55, 40, 0]  # guest time is in user
    assert steal_share(before, after) == pytest.approx(20 / 200)
    assert steal_share(None, after) is None
    assert steal_share(after, after) is None


@pytest.mark.skipif(not hasattr(os, "SCHED_IDLE"), reason="no idle scheduling class")
def test_idle_poll_spinners_run_inside_the_block_only():
    with IdlePoll() as idle_poll:
        assert len(idle_poll.procs) == (os.cpu_count() or 1)
        time.sleep(0.5)
        assert idle_poll.running() == len(idle_poll.procs)
    assert all(p.returncode is not None for p in idle_poll.procs)


# -- percentiles and self time --------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 11))
    assert percentile(values, 50) == pytest.approx(5.5)
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile([4.0], 99) == 4.0


def span(i, start, end, parent=None, links=(), name="x"):
    return {
        "id": i, "parent": parent, "name": name, "start": start, "end": end,
        "rid": None, "links": list(links), "attrs": None,
    }


def test_covered_merges_overlaps_and_clips():
    assert covered((0, 100), [(10, 30), (20, 50), (90, 120), (-5, 2)]) == 52
    assert covered((0, 100), []) == 0


def test_self_time_subtracts_children_and_linked_spans():
    spans = [
        span(1, 0, 100),  # executor await of request A
        span(2, 0, 100),  # executor await of request B
        span(3, 40, 90, parent=1, links=[2]),  # one grouped call serves both
        span(4, 50, 60, parent=3),  # a leg reconstruction inside it
        span(5, 70, 75, parent=3),
    ]
    own = self_times(spans)
    assert own == {1: 50, 2: 50, 3: 35, 4: 10, 5: 5}


def test_recorder_links_calls_across_threads():
    rec = SpanRecorder()
    request = object()

    def leaf():
        return 7

    def facade(req):
        return wrapped_leaf()

    wrapped_leaf = rec.wrap(leaf, "leaf")
    wrapped_facade = rec.wrap(facade, "facade", requests=lambda a: a[0:1])
    with rec.span("root") as root, rec.own(request, root, "r1"):
        worker = threading.Thread(target=wrapped_facade, args=(request,))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {s["name"]: s for s in rec.as_dicts()}
    assert by_name["facade"]["parent"] == root
    assert by_name["facade"]["rid"] == "r1"
    assert by_name["leaf"]["parent"] == by_name["facade"]["id"]
    assert by_name["root"]["parent"] is None


# -- the answer check -----------------------------------------------------------


@pytest.fixture(scope="module")
def oracle():
    from repro.client import LocalBackend
    from repro.service import ServiceConfig, TransitService
    from repro.synthetic.instances import make_instance

    service = TransitService(
        make_instance("oahu", "tiny"),
        ServiceConfig(use_distance_table=True, transfer_fraction=0.5),
    )
    return LocalBackend(service)


def test_answer_check_flags_a_corrupted_answer(oracle):
    request = loadgen.journey(0, 5, 480)[0]
    answer = loadgen.send(oracle, request)
    assert answer.legs
    assert mismatches([(request, answer)], oracle) == []
    late = replace(answer, arrival=answer.arrival + 1)
    assert len(mismatches([(request, late)], oracle)) == 1
    shortened = replace(answer, legs=answer.legs[:-1])
    assert len(mismatches([(request, shortened)], oracle)) == 1


def test_answer_check_flags_a_corrupted_pareto_front(oracle):
    request = ("multicriteria", (0, 5), {"departure": 480})
    answer = loadgen.send(oracle, request)
    assert answer.options
    assert mismatches([(request, answer)], oracle) == []
    dropped = replace(answer, options=answer.options[1:] or ())
    assert len(mismatches([(request, dropped)], oracle)) == 1
