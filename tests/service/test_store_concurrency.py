"""Many concurrent writers, one store: the put-race contract.

Four processes hammer the same ``ResultStore`` with overlapping
digests.  Afterwards every record must parse (atomic-rename puts never
leave torn files), last-writer-wins must be unobservable (racing
records are value-equal apart from provenance), and the index sidecar
must cover every digest despite interleaved appends.  The synthetic
stats here are deterministic functions of the digest so value-equality
across writers holds by construction, exactly as it does for real
runs.
"""

import json
import multiprocessing

import pytest

from repro.sim.stats import MachineStats
from repro.sim.store import ResultStore

WRITERS = 4
ROUNDS = 25
DIGESTS = [f"{i:02d}" + "ab" * 31 for i in range(8)]  # shared by all


def _stats_for(digest: str) -> MachineStats:
    """Deterministic synthetic stats — same digest, same value."""
    seed = int(digest[:2])
    return MachineStats(cycles=1000 + seed, l1_accesses=seed * 7)


def _writer(root, writer_id: int) -> None:
    store = ResultStore(root)
    for round_no in range(ROUNDS):
        for digest in DIGESTS:
            store.save(
                digest,
                _stats_for(digest),
                spec={"kernel": f"k{int(digest[:2])}"},
                provenance={"writer": writer_id, "round": round_no},
            )


@pytest.fixture(scope="module")
def hammered_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_writer, args=(root, writer_id))
        for writer_id in range(WRITERS)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    return ResultStore(root)


class TestConcurrentWriters:
    def test_every_record_parses_and_has_the_expected_value(
        self, hammered_store
    ):
        assert sorted(hammered_store.digests()) == sorted(DIGESTS)
        for digest in DIGESTS:
            record = hammered_store.load_record(digest)
            assert record is not None, f"torn/unreadable record {digest}"
            assert record["stats"] == _stats_for(digest).to_dict()

    def test_winner_is_one_complete_writer_not_a_blend(
        self, hammered_store
    ):
        for digest in DIGESTS:
            provenance = hammered_store.load_record(digest)["provenance"]
            assert provenance["writer"] in range(WRITERS)
            assert provenance["round"] in range(ROUNDS)

    def test_index_journal_covers_every_digest(self, hammered_store):
        index = hammered_store.index()
        assert set(index) == set(DIGESTS)
        for digest, entry in index.items():
            assert entry["cycles"] == _stats_for(digest).cycles

    def test_index_journal_has_no_torn_lines(self, hammered_store):
        journal = hammered_store.root / ResultStore.INDEX_NAME
        lines = journal.read_text().splitlines()
        # O_APPEND single-write lines from 4 processes never interleave.
        assert len(lines) == WRITERS * ROUNDS * len(DIGESTS)
        for line in lines:
            json.loads(line)


class TestIndexRecovery:
    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.save(DIGESTS[0], _stats_for(DIGESTS[0]))
        journal = store.root / ResultStore.INDEX_NAME
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"digest": "crash-torn-li')  # no newline: a crash
        index = store.index()
        assert set(index) == {DIGESTS[0]}

    def test_rebuild_index_regenerates_from_records(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for digest in DIGESTS[:3]:
            store.save(digest, _stats_for(digest))
        (store.root / ResultStore.INDEX_NAME).unlink()
        assert store.index() == {}
        assert store.rebuild_index() == 3
        assert set(store.index()) == set(DIGESTS[:3])


class TestJournalTail:
    def test_tail_reads_only_new_lines(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.journal_since(0) == ([], 0)
        store.save(DIGESTS[0], _stats_for(DIGESTS[0]))
        offset = store.journal_size()
        assert offset > 0
        for digest in DIGESTS[1:3]:
            store.save(digest, _stats_for(digest))
        digests, resume = store.journal_since(offset)
        assert digests == DIGESTS[1:3]
        assert resume == store.journal_size()
        assert store.journal_since(resume) == ([], resume)

    def test_partial_line_is_read_whole_next_time(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        journal = store.root / ResultStore.INDEX_NAME
        store.root.mkdir(parents=True)
        line = json.dumps({"digest": DIGESTS[0]}) + "\n"
        journal.write_text(line[:10])               # append in flight
        assert store.journal_since(0) == ([], 0)
        journal.write_text(line)
        assert store.journal_since(0) == ([DIGESTS[0]], len(line))

    def test_rebuilt_journal_is_reread_from_the_top(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        for digest in DIGESTS[:3]:
            store.save(digest, _stats_for(digest))
        offset = store.journal_size()
        store.clear()
        store.save(DIGESTS[4], _stats_for(DIGESTS[4]))
        assert store.journal_since(offset)[0] == [DIGESTS[4]]
