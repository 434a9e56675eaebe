"""Golden digests: every preset's artifacts, pinned byte for byte.

Each bundled scenario runs with its agents and without them; the sha256
of `trace.csv`, `tickets.jsonl` and `summary.json` (as `sim --out`
writes them) and of a fixed rendering of the run's triggers and ticket
closures must match the table below.  A refactor must leave every
digest unchanged.  Only an intentional change of behaviour may update
the table, and the change that does so must say why.

To print the current table:

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from stormctl import tracefile
from stormctl.simulation import SimTrace, preset, run, scenario_presets

GOLDEN = {
    ('normal', True): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'summary.json': 'ca68b247c472c68bd8ac320e05cf8a61c23ae38501750fd02eb14e3782cad4a1',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': 'e1a126e39ab717c17715af338903a7e42bcbdf2ffe163dce9b8ce680858433aa',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    ('normal', False): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'summary.json': 'ca68b247c472c68bd8ac320e05cf8a61c23ae38501750fd02eb14e3782cad4a1',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': 'e1a126e39ab717c17715af338903a7e42bcbdf2ffe163dce9b8ce680858433aa',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    ('loop-storm', True): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'summary.json': '86b16c7afbfdde53984544410ec7fce8fe0d5c8b724f280568acf6bb50a554b8',
        'tickets.jsonl': '2f9777c8a5e564441401cb06bf280ab12f50692ec6f72f6ec4a102d3a4125753',
        'trace.csv': '8c89e0ee5c7ea7a961aded25cb24691ab9b9f7d82eb13f016b5d65a991becd4d',
        'triggers': '43f261870ee32e14138742da71786944e5a2c109e8668cefaefd24e48d427320',
    },
    ('loop-storm', False): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'summary.json': 'ad33282e86d24545b467361fff40303ca31cec91b8bc82cded00f7194dc358a6',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': '4002329c012ef98bf7968c231688941a384881d54f29602879aed4a6660b6b88',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    ('smurf', True): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'summary.json': 'b03544495127f35b02fd662aa38c5f55f05c9684f8394893cd79ac9c12fcb4c7',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': 'ecfbe0b094a14921e7227d55d3aa5a24bf44183813efee9762f4d037633fbd59',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    ('smurf', False): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'summary.json': 'b03544495127f35b02fd662aa38c5f55f05c9684f8394893cd79ac9c12fcb4c7',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': 'ecfbe0b094a14921e7227d55d3aa5a24bf44183813efee9762f4d037633fbd59',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    ('faulty-nic', True): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'summary.json': '38e85bc7f171dc97e9993c03255cc01e1d7534d040c1d228fa2cf3cdfc0520dc',
        'tickets.jsonl': '3bd775964f101fd688954ba7f3b70b8d90abbf2abb3ea3be62a92f5476b6a54d',
        'trace.csv': 'd9e5cd446c22877a7da167a6413593fb680211e9940e5607d2c7ada9412081c0',
        'triggers': 'dc218e0bc9e3787e0c3f93b9da66fac6b9b64b0e2446011e095ef1726f2539d8',
    },
    ('faulty-nic', False): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'summary.json': '44d39d33fc91abe76fbfaf048dc98f89e344fd31cd7e4e99351e70798e6234b8',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': 'd9e5cd446c22877a7da167a6413593fb680211e9940e5607d2c7ada9412081c0',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    ('table5-control', True): {
        'closed': '019e81b11cfc768f9d48364750133ea0786a91edaa67456a3f9e166138fad331',
        'summary.json': '9babfeab203de704afa6a364b038d733e941915a09d2482780a84498fbe88f0f',
        'tickets.jsonl': '5aa207842861cd7c8a7f72cf08a2182e387eb8e3e8e0eaf2f7506365904f0839',
        'trace.csv': '256924478bf3222e84f7e35aa4fd78541802fced37cf6ac994b2d50db33ada22',
        'triggers': '4d9ed6d2506cdeaf718b6935bafea1e91afe22d53c01a91a773f473d82530849',
    },
    ('table5-control', False): {
        'closed': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'summary.json': '37bc0687326721d47650849cdefb4c10ac27d5984b85cad0e2d61cad75d0090e',
        'tickets.jsonl': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'trace.csv': 'd7864b93f1efa0d7874e2e5682af3eef862ad34b7a90e3567df95b6ff9741db7',
        'triggers': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
}


def render_triggers(trace: SimTrace) -> str:
    return "".join(
        f"{tr.cause.value} {tr.node} {tr.t!r} {tr.observed!r} "
        f"{tr.threshold!r}\n" for tr in trace.triggers)


def render_closed(trace: SimTrace) -> str:
    return "".join(
        f"{tk.ticket_id} {tk.node} {tk.t!r} {tk.cause.value} "
        f"{tk.observed!r} {tk.threshold!r} {when!r}\n"
        for tk, when in trace.closed)


def digests(name: str, agents: bool) -> dict[str, str]:
    trace = run(preset(name, agents=agents))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        tracefile.write_channel_csv(trace, out / "trace.csv")
        tracefile.write_tickets(trace.tickets, out / "tickets.jsonl")
        tracefile.write_summary(trace.summary(), out / "summary.json")
        blobs = {path.name: path.read_bytes() for path in out.iterdir()}
    blobs["triggers"] = render_triggers(trace).encode()
    blobs["closed"] = render_closed(trace).encode()
    return {key: hashlib.sha256(blob).hexdigest()
            for key, blob in sorted(blobs.items())}


CASES = [(name, agents) for name in scenario_presets()
         for agents in (True, False)]


@pytest.mark.parametrize("name,agents", CASES,
                         ids=[f"{n}-{'agents' if a else 'bare'}"
                              for n, a in CASES])
def test_artifacts_match_golden_digests(name, agents):
    assert digests(name, agents) == GOLDEN[(name, agents)]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {{")
        for key, value in digests(*case).items():
            print(f"        {key!r}: {value!r},")
        print("    },")
