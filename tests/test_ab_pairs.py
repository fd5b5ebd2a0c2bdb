"""The summary of `tools/ab_pairs.py` on fixed numbers, and its loop
over several workloads with the benchmark runs replaced by fixed
numbers; tier-1 runs no benchmark."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import ab_pairs  # noqa: E402

PARENT = [26.7, 26.5, 27.2, 26.9, 26.4, 27.0, 26.8, 26.6, 27.1, 26.3]


def test_a_clear_gain_is_claimable():
    pairs = list(zip(PARENT, [30.7, 31.3, 29.8, 30.1, 30.9, 31.0, 30.2, 30.5, 26.0, 30.8]))
    s = ab_pairs.summarize(pairs, higher_is_better=True)
    assert s["wins"] == 9 and s["pairs"] == 10 and s["claim"]
    assert s["parent"][1] == 26.75 and s["change"][1] == 30.6
    assert s["parent"][0] < s["parent"][1] < s["parent"][2]


def test_too_few_wins_or_a_gain_within_the_spread_is_not():
    eight = list(zip(PARENT, [30.7, 31.3, 29.8, 30.1, 30.9, 31.0, 30.2, 30.5, 26.0, 26.0]))
    assert ab_pairs.summarize(eight, higher_is_better=True)["wins"] == 8
    assert not ab_pairs.summarize(eight, higher_is_better=True)["claim"]
    # every pair won, by less than the parent's quartile distance
    close = [(p, p + 0.05) for p in PARENT]
    s = ab_pairs.summarize(close, higher_is_better=True)
    assert s["wins"] == 10 and not s["claim"]


def test_fewer_than_ten_pairs_are_not_claimable():
    nine = list(zip(PARENT[:9], [30.7, 31.3, 29.8, 30.1, 30.9, 31.0, 30.2, 30.5, 30.8]))
    s = ab_pairs.summarize(nine, higher_is_better=True)
    assert s["wins"] == 9 and s["pairs"] == 9 and not s["claim"]
    assert not ab_pairs.summarize([(1.0, 2.0)], higher_is_better=True)["claim"]


def test_lower_is_better_and_ties_count_for_neither():
    pairs = [(0.036, 0.031), (0.035, 0.035), (0.036, 0.032)]
    s = ab_pairs.summarize(pairs, higher_is_better=False)
    assert s["wins"] == 2 and not s["claim"]
    assert ab_pairs.summarize([(1.0, 2.0)], higher_is_better=True)["parent"] == (1.0, 1.0, 1.0)


def test_a_metric_worse_past_its_bound_is_flagged():
    # parent median 22.4 MB; a bound of 0.1 allows up to 24.64
    rss = [(22.3, 24.5), (22.4, 24.6), (22.5, 24.7)]
    assert not ab_pairs.summarize(rss, higher_is_better=False, bound=0.1)["past_bound"]
    assert ab_pairs.summarize([(p, c + 0.1) for p, c in rss], higher_is_better=False, bound=0.1)["past_bound"]
    # 26.75 -> 20.0 is 25.2 % fewer programs per second, past a 0.25 bound
    slower = [(p, 20.0) for p in PARENT]
    assert ab_pairs.summarize(slower, higher_is_better=True, bound=0.25)["past_bound"]
    assert not ab_pairs.summarize(slower, higher_is_better=True, bound=0.3)["past_bound"]
    # a gain is never past a bound, and no bound given flags nothing
    assert not ab_pairs.summarize([(p, 30.0) for p in PARENT], higher_is_better=True, bound=0.0)["past_bound"]
    assert not ab_pairs.summarize(slower, higher_is_better=True)["past_bound"]


def test_each_workload_runs_its_pairs_and_prints_its_table(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    spec = {"end_to_end": [
        {"name": "programs_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ]}
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = []

    def run_once(root, workload, seed, seconds):
        # the change is faster on fast-one; on slow-one it is as fast
        # and takes a third more memory
        i = sum(w == workload and r == root for r, w in runs)
        runs.append((root, workload))
        faster = root == change and workload == "fast-one"
        rss = 30.0 if root == change and workload == "slow-one" else 22.0
        return {"programs_per_s": PARENT[i] + 4 * faster, "peak_rss_mb": rss}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    ab_pairs.main([str(parent), str(change), "--workload", "fast-one", "--workload", "slow-one",
                   "--metric", "programs_per_s", "--pairs", "10", "--seconds", "1"])
    # all pairs of one workload, then the next; the side that runs first alternates
    assert [w for _, w in runs] == ["fast-one"] * 20 + ["slow-one"] * 20
    assert [r for r, _ in runs[:4]] == [parent, change, change, parent]
    out = capsys.readouterr().out
    fast, slow = out.split("\nslow-one:\n")
    assert "\nfast-one:\n" in fast and "WORSE" not in fast
    assert "programs_per_s: change won 10 of 10 pairs (higher is better); gain claimable: yes" in fast
    assert "peak_rss_mb: parent 22 (22 .. 22)  change 30 (30 .. 30)  WORSE PAST BOUND 0.1" in slow
    assert "change won 0 of 10 pairs" in slow and "gain claimable: no" in slow
