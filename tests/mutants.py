"""Mutation check: each mutant below is a small wrong edit of the source that
named tests must catch.

A mutant is (name, file, old text, new text, tests). The old text must occur
exactly once in its file. For each mutant the script copies ``src``,
``tests`` and ``pyproject.toml`` into a temporary directory, replaces the old
text with the new one there, and runs the listed tests on the copy. A mutant
is killed when those tests fail; it survives when they pass. The script exits
non-zero if any mutant survives or cannot be applied.

Run from the repository root (pytest does not collect this file):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    (
        "fi_gen walks its classes in ascending order",
        "src/starminer/mining.py",
        "a, mask = members.pop()\n"
        "        head = prefix + (a,)\n"
        "        child = frequent(head, [(b, mask & extents[b]) for b in survivors.pop()])",
        "a, mask = members.pop(0)\n"
        "        head = prefix + (a,)\n"
        "        child = frequent(head, [(b, mask & extents[b]) for b in survivors.pop(0)])",
        ["tests/test_fast_paths.py"],
    ),
    (
        "n_groups counts (group, code) pairs",
        "src/starminer/mining.py",
        "        return len(self.keys)",
        "        return sum(map(len, self.members.values()))",
        ["tests/test_metamorphic.py::test_writing_every_fact_line_twice_doubles_only_general_rows"],
    ),
    (
        "an itemset is frequent only above the threshold",
        "src/starminer/mining.py",
        "(count := mask.bit_count()) >= threshold",
        "(count := mask.bit_count()) > threshold",
        ["tests/test_fast_paths.py"],
    ),
    (
        "build_item_extents keeps a code only above the threshold",
        "src/starminer/mining.py",
        "(mask := int_from_bit_positions(view.members[c], n)).bit_count() >= threshold",
        "(mask := int_from_bit_positions(view.members[c], n)).bit_count() > threshold",
        ["tests/test_fast_paths.py::test_build_item_extents_keeps_the_codes_that_reach_the_threshold",
         "tests/test_fast_paths.py::test_miners_agree_on_views_with_infrequent_codes"],
    ),
    (
        "apriori counts an enumerated code set once, not by its weight",
        "src/starminer/mining.py",
        "                    counts[combo] += w",
        "                    counts[combo] += 1",
        ["tests/test_fast_paths.py::test_count_level_enumerates_narrow_groups_and_scans_wide_ones",
         "tests/test_fast_paths.py::test_weighted_count_level_counts_as_the_expanded_groups"],
    ),
    (
        "apriori counts a wide code set once, not by its weight",
        "src/starminer/mining.py",
        "                counts[cand] += w",
        "                counts[cand] += 1",
        ["tests/test_fast_paths.py::test_count_level_enumerates_narrow_groups_and_scans_wide_ones",
         "tests/test_fast_paths.py::test_weighted_count_level_counts_as_the_expanded_groups"],
    ),
    (
        "support threshold rounds down",
        "src/starminer/mining.py",
        "math.ceil(f * n_groups)",
        "math.floor(f * n_groups)",
        ["tests/test_metamorphic.py::test_appending_a_renamed_copy_of_the_fact_doubles_every_count_only"],
    ),
    (
        "rules with equal support and confidence are ordered by unsorted pairs",
        "src/starminer/rules.py",
        "            tuple(sorted(r.antecedent)),\n            tuple(sorted(r.consequent)),",
        "            tuple(r.antecedent),\n            tuple(r.consequent),",
        ["tests/test_metamorphic.py::test_permuting_the_fact_rows_keeps_every_itemset_and_rule"],
    ),
    (
        "the one-to-one join reads the dimension row before the match",
        "src/starminer/ingest.py",
        "{key: values[r] for key, (r,) in index.items()}",
        "{key: values[r - 1] for key, (r,) in index.items()}",
        ["tests/test_metamorphic.py::test_dimension_rows_no_fact_row_references_change_no_output"],
    ),
    (
        "the one-to-one join is taken with duplicate dimension keys",
        "src/starminer/ingest.py",
        "return index, all(len(rs) == 1 for rs in index.values())",
        "return index, all(len(rs) >= 1 for rs in index.values())",
        ["tests/test_ingest_fast_paths.py::test_join_matches_product_loop"],
    ),
    (
        "join_tables accepts one dimension linked twice",
        "src/starminer/ingest.py",
        "        if dim.name in source_of:",
        "        if False:",
        ["tests/test_ingest.py::test_join_rejects_one_dimension_linked_by_two_fact_keys"],
    ),
    (
        "validate accepts one dimension linked twice",
        "src/starminer/pipeline.py",
        "twice = sorted({dim for dim in linked if linked.count(dim) > 1})",
        "twice = []",
        ["tests/test_pipeline_cli.py::test_one_dimension_linked_twice_is_a_usage_error_before_any_read"],
    ),
    (
        "the CLI reports any ValueError as a usage error",
        "src/starminer/cli.py",
        "    except UsageError as exc:",
        "    except ValueError as exc:",
        ["tests/test_pipeline_cli.py::test_a_bare_value_error_in_the_pipeline_is_a_bug_not_a_usage_error"],
    ),
    (
        "load_csv takes non-finite numbers",
        "src/starminer/ingest.py",
        "finite = all(map(math.isfinite, map(float, numbers)))",
        "finite = [*map(float, numbers)] is not None",
        ["tests/test_ingest_fast_paths.py::test_load_csv_matches_line_parser"],
    ),
    (
        "an out-of-bin value is reported one row early",
        "src/starminer/ingest.py",
        "_bin_error(attr, value, column.index(value) + 1)",
        "_bin_error(attr, value, column.index(value))",
        ["tests/test_ingest_fast_paths.py::test_discretize_matches_bin_search"],
    ),
    (
        "filters on two dimensions are OR-ed",
        "src/starminer/mapcode.py",
        "map(all, zip(*masks))",
        "map(any, zip(*masks))",
        ["tests/test_ingest_fast_paths.py::test_combine_dims_and_group_by_key_match_loops"],
    ),
    (
        "a failed atomic write leaves its temporary file",
        "src/starminer/ingest.py",
        "        tmp.unlink(missing_ok=True)\n",
        "",
        ["tests/test_pipeline_cli.py::test_failed_artifact_write_leaves_each_file_old_or_new"],
    ),
    (
        "a rule at exactly minconf is dropped",
        "src/starminer/rules.py",
        "if count * conf_den < conf_num * ante_count:",
        "if count * conf_den <= conf_num * ante_count:",
        ["tests/test_metamorphic.py::test_raising_minconf_keeps_exactly_the_rules_at_or_above_it"],
    ),
    (
        "the synth CSV writer drops the last partial block",
        "src/starminer/synth.py",
        "while block := list(islice(lines, _BLOCK_ROWS)):",
        "while len(block := list(islice(lines, _BLOCK_ROWS))) == _BLOCK_ROWS:",
        ["tests/test_synth.py::test_streamed_files_match_whole_text_ones_at_block_edges"],
    ),
    (
        "the pair-fragment cache is keyed by the value alone",
        "src/starminer/pipeline.py",
        "        fragment = self[key] = self._render(key)",
        "        fragment = self[key] = self.setdefault(key[1] if isinstance(key, tuple) else key, self._render(key))",
        ["tests/test_render.py::test_rendered_lines_match_the_encoder_and_formatters"],
    ),
    (
        "codes are numbered in key order",
        "src/starminer/mapcode.py",
        "dict.fromkeys(zip(*chosen))",
        "dict.fromkeys(c for _, c in sorted(zip(keys, zip(*chosen))))",
        ["tests/test_metamorphic.py::test_renaming_every_key_one_to_one_changes_no_output"],
    ),
    (
        "pairs shared by two-dimension codes are kept twice",
        "src/starminer/mapcode.py",
        "can_share = len(registry.selected_dims) > 1",
        "can_share = len(registry.selected_dims) > 2",
        ["tests/test_render.py::test_unchecked_constructors_build_what_the_public_ones_build"],
    ),
    (
        "each chunk of the fact file is coded by a fresh registry",
        "src/starminer/pipeline.py",
        "filters=filter_map or None, registry=registry",
        "filters=filter_map or None, registry=(registry := MapCodeRegistry(config.selected_dims))",
        ["tests/test_stream.py::test_a_generated_star_streams_to_the_same_bytes"],
    ),
    (
        "a chunk's error is reported without reading the rest of the fact file",
        "src/starminer/pipeline.py",
        "                failed = rank, exc.with_traceback(None)",
        "                failed = rank, exc.with_traceback(None)\n            break",
        ["tests/test_stream.py::test_a_fact_load_error_in_a_late_chunk_wins_over_an_early_orphan"],
    ),
    (
        "a dimension's error is reported without reading the rest of the fact file",
        "src/starminer/pipeline.py",
        "        deque(facts, maxlen=0)",
        "        pass",
        ["tests/test_stream.py::test_a_fact_load_error_in_a_late_chunk_wins_over_a_dimension_load_error"],
    ),
    (
        "a later chunk's orphans are dropped",
        "src/starminer/pipeline.py",
        'orphans.update(dict.fromkeys(getattr(exc, "orphans", ())))',
        'orphans = orphans or dict.fromkeys(getattr(exc, "orphans", ()))',
        ["tests/test_stream.py::test_orphans_are_listed_in_fact_row_order_across_chunks_up_to_the_cap"],
    ),
    (
        "a bin error keeps its chunk-local row",
        "src/starminer/pipeline.py",
        "exc = _bin_error(attr, value, start + row)",
        "exc = _bin_error(attr, value, row)",
        ["tests/test_stream.py::test_the_first_binned_column_is_checked_over_every_chunk_before_the_next"],
    ),
    (
        "the first failed chunk's error is raised at once",
        "src/starminer/pipeline.py",
        "            if failed is None or rank < failed[0]:\n                failed = rank, exc.with_traceback(None)",
        "            raise",
        ["tests/test_stream.py::test_the_first_binned_column_is_checked_over_every_chunk_before_the_next",
         "tests/test_stream.py::test_a_late_orphan_wins_over_an_early_value_outside_every_bin"],
    ),
    (
        "group_by_key numbers the keys in sorted order",
        "src/starminer/mining.py",
        "new_keys = filterfalse(index.__contains__, dict.fromkeys(md.keys))",
        "new_keys = filterfalse(index.__contains__, dict.fromkeys(sorted(md.keys)))",
        ["tests/test_ingest_fast_paths.py::test_group_by_key_over_chunks_matches_the_checked_constructor"],
    ),
    (
        "group_by_key's key numbers restart at 0 for each table",
        "src/starminer/mining.py",
        "range(len(index), len(index) + len(md.keys))",
        "range(len(md.keys))",
        ["tests/test_ingest_fast_paths.py::test_group_by_key_over_chunks_matches_the_checked_constructor"],
    ),
    (
        "group_by_key collects every table before grouping",
        "src/starminer/mining.py",
        "    index: dict[str, int] = {}\n    members: dict[str, array] = {}\n",
        "    tables = list(tables)\n    index: dict[str, int] = {}\n    members: dict[str, array] = {}\n",
        ["tests/test_ingest_fast_paths.py::test_group_by_key_releases_each_table_before_it_draws_the_one_after"],
    ),
    (
        "the checked view takes a member index past its last group",
        "src/starminer/mining.py",
        "if low < 0 or high >= n:",
        "if low < 0 or high > n:",
        ["tests/test_mining.py::test_checked_view_rejects_a_member_index_outside_its_groups"],
    ),
    (
        "group_sets lays out a repeated member index twice",
        "src/starminer/mining.py",
        "            for j in set(self.members[code]):\n                ends[j] -= 1",
        "            for j in self.members[code]:\n                ends[j] -= 1",
        ["tests/test_ingest_fast_paths.py::test_group_sets_match_the_list_per_group_build"],
    ),
    (
        "each chunk's join indexes its dimensions again",
        "src/starminer/ingest.py",
        'kept = vars(table).setdefault("_kept", {})',
        "kept = {}",
        ["tests/test_stream.py::test_each_dimension_is_indexed_once_however_many_chunks_it_joins"],
    ),
    (
        "a generation-only run keeps an earlier run's bench_report.json",
        "src/starminer/pipeline.py",
        "            for name in ARTIFACTS:\n",
        "            for name in ARTIFACTS[:-1]:\n",
        ["tests/test_pipeline_cli.py::test_a_generation_only_run_removes_an_earlier_mining_runs_artifacts"],
    ),
    (
        "gen_rules' subset lookup skips one-pair antecedents",
        "src/starminer/rules.py",
        "            while akey:\n",
        "            while akey & (akey - 1):\n",
        ["tests/test_fast_paths.py"],
    ),
    (
        "_assign pairs the fields in reversed order",
        "src/starminer/datamodel.py",
        "zip(type(self).__match_args__, values)",
        "zip(reversed(type(self).__match_args__), values)",
        ["tests/test_datamodel.py::test_each_unchecked_constructor_builds_what_the_checked_one_builds"],
    ),
    (
        "_write_artifacts joins itemsets.jsonl whole again",
        "src/starminer/pipeline.py",
        'write("itemsets.jsonl", map(render.itemset_json, result.itemsets, result.decoded))',
        'write("itemsets.jsonl", ["".join(map(render.itemset_json, result.itemsets, result.decoded))])',
        ["tests/test_pipeline_cli.py::test_artifact_write_never_holds_a_whole_file"],
    ),
    (
        "the per-chunk reader shares one pool across all chunks",
        "src/starminer/ingest.py",
        "    pools: list[dict[str, str]] = [{} for _ in schema]\n",
        "    pools: list[dict[str, str]] = [*vars(load_csv).setdefault(\"pools\", [{} for _ in schema])]\n",
        ["tests/test_stream.py::test_the_chunk_reader_holds_nothing_of_a_chunk_when_it_reads_the_next"],
    ),
    (
        "a header-only file yields no table",
        "src/starminer/ingest.py",
        "            lines, row = lines[1:], 1\n",
        "            lines, row = lines[1:], 1\n            if not lines:\n                return\n",
        ["tests/test_stream.py::test_fact_tables_cut_the_file_into_its_rows_in_order"],
    ),
    (
        "a bad row in a later chunk is numbered from its chunk's first line",
        "src/starminer/ingest.py",
        "                row += len(lines)\n",
        "                row = 1\n",
        ["tests/test_stream.py::test_a_fact_load_error_in_a_late_chunk_wins_over_an_early_orphan"],
    ),
    (
        "a failed chunk does not read the rest of the file",
        "src/starminer/ingest.py",
        "        deque(chunks, maxlen=0)",
        "        pass",
        ["tests/test_ingest_fast_paths.py::test_text_that_is_not_utf8_wins_over_an_earlier_bad_line"],
    ),
    (
        "the reader skips its quote check",
        "src/starminer/ingest.py",
        """    if '"' in joined or set(map(str.count, lines, repeat(","))) - {width - 1}:""",
        """    if set(map(str.count, lines, repeat(","))) - {width - 1}:""",
        ["tests/test_ingest_fast_paths.py::test_load_csv_matches_line_parser"],
    ),
]


def run_mutant(file: str, old: str, new: str, tests: list[str]) -> str:
    """``killed``, ``SURVIVED``, or why the mutant could not be run."""
    text = (ROOT / file).read_text(encoding="utf-8")
    if text.count(old) != 1:
        return f"NOT APPLIED: the old text occurs {text.count(old)} times in {file}"
    with tempfile.TemporaryDirectory(prefix="starminer-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / file).write_text(text.replace(old, new), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    # pytest exits 1 when tests ran and some failed; any other failure code
    # (collection error, no test found) says the entry is wrong
    if proc.returncode == 0:
        return "SURVIVED"
    if proc.returncode == 1:
        return "killed"
    return f"NOT RUN: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for name, *mutant in MUTANTS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        outcome = run_mutant(*mutant)
        bad += outcome != "killed"
        print(f"{outcome.splitlines()[0]:<10} {time.perf_counter() - start:5.1f} s  {name}")
        if "\n" in outcome:
            print(outcome.split("\n", 1)[1])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
