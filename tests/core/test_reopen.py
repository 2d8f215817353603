"""A reopened warehouse against the loaded one it was saved from, on the
benchmark's own ``ingest_bulk`` dataset: same trees, same bytes when
saved again, same answers over the whole read stream — and a fraction of
the memory a field-by-field decode holds, because equal values are one
object again."""

import gc
import hashlib
import json
import os
import tracemalloc

import pytest

from repro.core.aggregates import AVG, COUNT, SUM
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse
from repro.storage.serialization import decode_page

from tests.oracles import canonical_tree_dump

workloads = pytest.importorskip("benchmarks.stack.workloads")

AGGREGATES = {"SUM": SUM, "COUNT": COUNT, "AVG": AVG}
#: SHA-256 (first 16 hex digits) of the ``repr`` of every answer to the
#: 60,000-statement stream at commit 3d0bdb4, whose restore shared nothing.
STREAM_SHA = {3: "404989546c1fd8fa", 11: "4bccc7fd144f294a"}


def load(warehouse, events):
    for i in range(0, len(events), workloads.LOAD_BATCH):
        warehouse.load_events(events[i:i + workloads.LOAD_BATCH],
                              batch_size=workloads.LOAD_BATCH)


@pytest.fixture(scope="module", params=[3, 11])
def cycle(request, tmp_path_factory):
    """``(inputs, loaded twin, reopened warehouse, checkpoint directory)``
    after the benchmark's open_durable → load → checkpoint → close →
    reopen."""
    inputs = workloads.generate("ingest_bulk", request.param)
    directory = str(tmp_path_factory.mktemp(f"reopen-{request.param}"))
    twin = TemporalWarehouse(key_space=workloads.KEY_SPACE)
    load(twin, inputs.loaded)
    warehouse = TemporalWarehouse.open_durable(
        directory, key_space=workloads.KEY_SPACE)
    load(warehouse, inputs.loaded)
    warehouse.checkpoint()
    warehouse.close()
    checkpoint, _ = TemporalWarehouse.current_checkpoint(directory)
    reopened = TemporalWarehouse.open_durable(directory)
    yield inputs, twin, reopened, checkpoint
    reopened.close()


def test_the_reopened_trees_are_the_loaded_trees(cycle):
    _inputs, twin, reopened, _ = cycle
    for tree, want in zip(reopened.aggregates.trees(),
                          twin.aggregates.trees()):
        assert canonical_tree_dump(tree) == canonical_tree_dump(want)


def test_saving_it_again_reproduces_the_checkpoint_byte_for_byte(
        cycle, tmp_path):
    _inputs, _twin, reopened, checkpoint = cycle
    again = str(tmp_path / "again")
    reopened.save(again)
    for part in ("aggregates", "tuples"):
        for name in ("pages.dat", "meta.json"):
            with open(os.path.join(checkpoint, part, name), "rb") as fh:
                written = fh.read()
            with open(os.path.join(again, part, name), "rb") as fh:
                assert fh.read() == written, (part, name)


def test_the_whole_read_stream_answers_alike(cycle):
    """All 60,000 statements of the stream, as ``repr`` — shared values
    must not have swapped an ``int`` for an equal ``float`` anywhere."""
    inputs, twin, reopened, _ = cycle

    def digest(warehouse):
        sha = hashlib.sha256()
        for read in inputs.reads:
            sha.update(repr(warehouse.aggregate(
                KeyRange(read.k_lo, read.k_hi),
                Interval(read.t_lo, read.t_hi),
                AGGREGATES[read.agg])).encode())
        return sha.hexdigest()

    assert len(inputs.reads) == 60_000
    got = digest(reopened)
    assert got == digest(twin)
    assert got.startswith(STREAM_SHA[inputs.seed])


def test_a_reopen_holds_under_half_of_what_fresh_fields_hold(cycle):
    """``decode_page`` is the decode a restore used to run: a fresh
    object per field.  Everything a restored warehouse keeps (pages,
    blocks and metadata included) must fit in 0.45 of what those
    records alone weigh."""
    inputs, _twin, _reopened, checkpoint = cycle
    if inputs.seed != 3:
        pytest.skip("one seed is enough for a ceiling")

    def held(build):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = build()
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before, kept
        finally:
            tracemalloc.stop()

    def fresh_fields():
        records = []
        for part in ("aggregates", "tuples"):
            with open(os.path.join(checkpoint, part, "meta.json")) as fh:
                page_bytes = json.load(fh)["page_bytes"]
            with open(os.path.join(checkpoint, part, "pages.dat"),
                      "rb") as fh:
                while image := fh.read(page_bytes):
                    records.append(decode_page(image)[1])
        return records

    reference, _records = held(fresh_fields)
    del _records
    shared, _warehouse = held(lambda: TemporalWarehouse.load(checkpoint))
    assert reference > 25e6        # the dataset is the benchmark's
    assert shared <= 0.45 * reference, (shared, reference)
