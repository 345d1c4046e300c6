import io

import pytest

from bibmet import tables, wos
from bibmet.errors import EmptyCorpusError
from bibmet.wos import ExportRun, parse_wos_export, scan_wos_export, write_wos_export


def test_parse_basic_block():
    text = "PT J\nAU Smith, A\n   Jones, B\nPY 2015\nER\n"
    result = parse_wos_export(text)
    assert result.skipped == 0
    (record,) = result.corpus.records
    assert record.year == 2015
    assert record.authors == ("Smith, A", "Jones, B")
    assert record.id == "rec000001"  # no UT, synthetic sequential id


def test_parse_uses_ut_as_id(sample_wos_text):
    result = parse_wos_export(sample_wos_text)
    assert [r.id for r in result.corpus.records] == [
        "WOS:000000000000001", "WOS:000000000000002", "WOS:000000000000003"]
    assert [r.author_count for r in result.corpus.records] == [2, 1, 3]


def test_parse_accepts_stream(sample_wos_text):
    result = parse_wos_export(io.StringIO(sample_wos_text))
    assert len(result.corpus) == 3


def test_empty_input_raises():
    with pytest.raises(EmptyCorpusError):
        parse_wos_export("")


def test_block_missing_year_is_skipped_and_tallied():
    text = ("PT J\nAU Smith, A\nPY 2015\nER\n\n"
            "PT J\nAU NoYear, X\nER\n\nEF\n")
    result = parse_wos_export(text)
    assert len(result.corpus) == 1
    assert result.skipped == 1
    assert result.skipped_lines == (6,)


def test_block_missing_authors_is_skipped():
    text = "PT J\nPY 2015\nER\n\nPT J\nAU Ok, A\nPY 2016\nER\nEF\n"
    result = parse_wos_export(text)
    assert len(result.corpus) == 1
    assert result.skipped == 1


def test_unparseable_year_is_skipped():
    text = "PT J\nAU Smith, A\nPY donkey\nER\nPT J\nAU Ok, B\nPY 2001\nER\nEF\n"
    result = parse_wos_export(text)
    assert [r.year for r in result.corpus.records] == [2001]
    assert result.skipped == 1


def test_all_blocks_malformed_names_first_line():
    text = "PT J\nPY 2015\nER\n\nPT J\nPY 2016\nER\nEF\n"
    with pytest.raises(EmptyCorpusError, match="line 1"):
        parse_wos_export(text)


def test_trailing_block_without_er_is_malformed():
    text = "PT J\nAU Smith, A\nPY 2015\nER\nPT J\nAU Lost, B\nPY 2016\n"
    result = parse_wos_export(text)
    assert len(result.corpus) == 1
    assert result.skipped == 1


def test_content_after_ef_is_ignored():
    text = ("PT J\nAU Smith, A\nPY 2015\nER\nEF\n"
            "PT J\nAU Ghost, X\nPY 2016\nER\n")
    result = parse_wos_export(text)
    assert len(result.corpus) == 1


def test_duplicate_au_lines_collapse():
    text = "PT J\nAU Smith, A\n   Smith, A\nPY 2015\nER\n"
    result = parse_wos_export(text)
    assert result.corpus.records[0].authors == ("Smith, A",)


def test_repeated_ut_keeps_the_first_block():
    text = ("PT J\nAU Smith, A\nPY 2010\nUT X1\nER\n\n"
            "PT J\nAU Jones, B\nPY 2011\nUT X1\nER\n"
            "PT J\nAU Lee, C\nPY 2012\nER\nPT J\nAU Kim, D\nPY 2013\nUT X1\nER\nEF\n")
    result = parse_wos_export(text)
    assert [(r.id, r.year, r.authors) for r in result.corpus.records] == [
        ("X1", 2010, ("Smith, A",)), ("rec000001", 2012, ("Lee, C",))]
    assert result.skipped_lines == ()
    run = ExportRun()
    assert list(scan_wos_export([[text]], run)) == [
        (r.id, r.year, r.authors) for r in result.corpus.records]
    assert (run.records, run.merged_lines) == (2, [7, 16])


def test_ut_equal_to_a_synthetic_id_is_renamed_not_merged():
    # a UT-less export, then an earlier --emit wos output of it: the
    # second export's UT rec000001 is no repeat of the first one's paper
    utless = "PT J\nAU Smith, A\nPY 2010\nER\nEF\n"
    emitted = ("PT J\nAU Jones, B\nPY 2011\nUT rec000001\nER\n\n"
               "PT J\nAU Lee, C\nPY 2012\nUT rec000002\nER\n\n"
               "PT J\nAU Kim, D\nPY 2013\nUT rec000001\nER\n\nEF\n")
    # UT rec000002 was given out to the block of UT rec000001 by then
    expected = [("rec000001", 2010, ("Smith, A",)), ("rec000002", 2011, ("Jones, B",)),
                ("rec000003", 2012, ("Lee, C",))]
    for chunk in (1, 1 << 20):
        run = ExportRun()
        assert list(scan_wos_export([[utless], _chunks(emitted, chunk)], run)) == expected
        # the repeat of UT rec000001 is merged, whichever id its first block took
        assert (run.records, run.merged_lines) == (3, [13])
    # within one export, as across two
    one = parse_wos_export(utless.replace("EF\n", "") + emitted)
    assert [(r.id, r.year, r.authors) for r in one.corpus.records] == expected
    # in the other order every UT is kept and the UT-less block takes the next free id
    run = ExportRun()
    assert [rid for rid, _, _ in scan_wos_export([[emitted], [utless]], run)] == [
        "rec000001", "rec000002", "rec000003"]
    assert run.merged_lines == [13]


def _chunks(text, size):
    fh = io.StringIO(text)
    return list(iter(lambda: fh.read(size) + fh.readline(), ""))


def test_export_whose_blocks_were_all_merged_is_not_empty():
    block = "PT J\nAU Smith, A\nPY 2010\nUT X1\nER\nEF\n"
    run = ExportRun()
    papers = list(scan_wos_export([[block], [block]], run))
    assert papers == [("X1", 2010, ("Smith, A",))]
    assert run.merged_lines == [1]


class ProbedSet(set):
    """A set that counts its membership tests."""

    probes = 0

    def __contains__(self, item):
        self.probes += 1
        return super().__contains__(item)


def test_synthetic_id_counter_runs_across_the_run():
    # a counter restarted per export would give rec000001 again in each
    # export, or, skipping the ids in use, probe ~25,000 of them over
    # these 50 exports, not ~2 per block
    exports = [["PT J\nAU A\nPY 2001\nER\n" * 20 + "EF\n"] for _ in range(50)]
    run = ExportRun(uts=ProbedSet())
    papers = list(scan_wos_export(exports, run))
    assert [rid for rid, _, _ in papers] == [f"rec{i:06d}" for i in range(1, 1001)]
    assert run.uts.probes <= 2 * len(papers)
    assert run.records == 1000


def test_parser_is_deterministic(sample_wos_text):
    a = parse_wos_export(sample_wos_text)
    b = parse_wos_export(sample_wos_text)
    assert a.corpus == b.corpus
    assert a.skipped == b.skipped
    assert a.skipped_lines == b.skipped_lines


def test_write_parse_roundtrip(sample_wos_text):
    corpus = parse_wos_export(sample_wos_text).corpus
    text = write_wos_export(corpus)
    again = parse_wos_export(text).corpus
    assert again.records == corpus.records
    # serialization itself is stable
    assert write_wos_export(again) == text


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64])
@pytest.mark.parametrize("tail", [b"\xff\n", b"\xe2\x82x\n", b"\xe2\x82"],
                         ids=["invalid-start", "cut-sequence", "cut-at-end"])
def test_undecodable_bytes_are_named_from_the_input_start_at_any_read_size(
        tmp_path, monkeypatch, chunk, tail):
    # reads that end inside a multi-byte character leave its first bytes
    # with the decoder, and the position must still count them
    data = "PT J\r\nAU Müller, Ä\n".encode("utf-8") * 3 + tail
    path = tmp_path / "export.txt"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    monkeypatch.setattr(tables, "CHUNK_CHARS", chunk)
    assert probe_chunks(tmp_path) > 1
    with pytest.raises(ValueError) as chunked:
        list(tables._file_chunks(path))
    assert str(chunked.value) == str(whole.value)


def probe_chunks(tmp_path) -> int:
    # the chunks that the reader cuts a 256-byte file into: one at the default
    # read size, more once a smaller size patched in has reached the reader
    path = tmp_path / "lines.txt"
    path.write_bytes(b"x\n" * 128)
    return len(list(tables._file_chunks(path)))


def crlf_export(bad: bytes = b"") -> tuple[bytes, list[int]]:
    # an export with CRLF line ends, multi-byte names and six ER lines, bad
    # in the title of its third block; and the byte after each ER line end
    blocks = [f"PT J\r\nAU Müller, Ä\r\n   Øster, {i}\r\nTI Über {i}\r\nPY 2015\r\n"
              f"UT WOS:{i}\r\nER\r\n\r\n".encode("utf-8") for i in range(6)]
    blocks[2] = blocks[2].replace(b"TI \xc3\x9cber", b"TI \xc3\x9cber" + bad)
    data = b"".join(blocks) + b"EF\r\n"
    return data, [end.end() for end in wos._ER_BYTES.finditer(data)]


def byte_ranges(cuts: list[int]) -> list[tuple[int, int | None]]:
    # every range from a cut (or 0) to a later cut (or None, the end)
    return [(start, stop) for start in [0] + cuts for stop in cuts + [None]
            if stop is None or start < stop]


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_a_byte_range_reads_its_own_bytes_decoded(tmp_path, monkeypatch, chunk):
    # reads of 1 or 7 bytes end inside a multi-byte character, and a read
    # that would pass stop is cut there
    data, cuts = crlf_export()
    path = tmp_path / "export.txt"
    path.write_bytes(data)
    monkeypatch.setattr(tables, "CHUNK_CHARS", chunk)
    assert probe_chunks(tmp_path) > 1
    for start, stop in byte_ranges(cuts):
        expected = data[start:stop].decode("utf-8").replace("\r\n", "\n")
        chunks = list(tables._file_chunks(path, start, stop))
        assert "".join(chunks) == expected, (start, stop)
        assert all(piece.endswith("\n") for piece in chunks), (start, stop)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_an_undecodable_byte_in_a_range_is_named_from_the_file_start(
        tmp_path, monkeypatch, chunk):
    data, cuts = crlf_export(bad=b"\xff")
    path = tmp_path / "export.txt"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    bad = whole.value.start
    monkeypatch.setattr(tables, "CHUNK_CHARS", chunk)
    assert probe_chunks(tmp_path) > 1
    for start, stop in byte_ranges(cuts):
        if start <= bad < (len(data) if stop is None else stop):
            with pytest.raises(ValueError) as ranged:
                list(tables._file_chunks(path, start, stop))
            assert str(ranged.value) == str(whole.value), (start, stop)
        else:  # a range before or after the byte reads none of it
            expected = data[start:stop].decode("utf-8").replace("\r\n", "\n")
            assert "".join(tables._file_chunks(path, start, stop)) == expected, (start, stop)
