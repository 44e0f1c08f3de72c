"""The answer check: served answers against in-process answers.

The oracle is a :class:`repro.client.LocalBackend` over the same store
the server loaded, so both sides decode the same wire encoding into the
same answer types.  Everything but the timing statistics must match:
arrival, legs, reduced profile, Pareto options, transfers.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Sequence

from loadgen import send


def answer_fields(answer) -> dict:
    """Every field of an answer except its ``stats``."""
    return {
        f.name: getattr(answer, f.name) for f in fields(answer) if f.name != "stats"
    }


def mismatches(pairs: Sequence[tuple[tuple, object]], oracle) -> list[str]:
    """For each ``(request, served answer)``, ask ``oracle`` the same
    request; describe every answer that differs."""
    out = []
    for request, served in pairs:
        expected = send(oracle, request)
        got, want = answer_fields(served), answer_fields(expected)
        if got != want:
            diff = sorted(k for k in want if got.get(k) != want[k])
            out.append(f"{request}: fields {diff} differ")
    return out


def delayed_oracle(base, batches: Sequence[tuple[tuple, int]]):
    """A cold service for ``base``'s timetable with ``batches`` applied
    in order, rebuilt in full the way ``apply_delays(mode="full")``
    rebuilds: station graph and transfer stations shared with ``base``,
    everything that depends on travel times built from scratch."""
    from repro.client import LocalBackend
    from repro.service import TransitService
    from repro.service.prepare import prepare_dataset
    from repro.timetable.delays import apply_delays

    timetable = base.timetable
    for delays, slack in batches:
        timetable = apply_delays(timetable, list(delays), slack_per_leg=slack)
    prepared = prepare_dataset(
        timetable,
        base.config,
        station_graph=base.prepared.station_graph,
        transfer_stations=base.prepared.transfer_stations,
    )
    return LocalBackend(TransitService(timetable, base.config, prepared=prepared))
