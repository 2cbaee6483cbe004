"""
End-to-end ablation on a synthetic population: generate annotators whose
verdicts are keyed to planted demographic disclosures, then compare context
strategies against the no-context baseline and print the report table.

Equivalent CLI: dlab run --config <the ini below> --out demo_out

Run:
    python demos/run_ablation.py
    python demos/run_ablation.py --out demo_out --annotators 40 --posts 80
"""
import argparse
import configparser
from pathlib import Path

from dlab.pipeline import parse_config, run_pipeline

BASE = {
    "synth": {
        "enabled": "true",
        "judgment_rule": "demographic_keyed",
        "nta_base_rate": "0.7",
        "comments_lo": "10",
        "comments_hi": "20",
        "verdicts_lo": "10",
        "verdicts_hi": "15",
    },
    # comments_lo above, so the annotator filter keeps every annotator
    "corpus": {"min_comments": "10"},
    "embed": {"dim": "512"},
    "split": {"kind": "situation", "ratios": "0.8,0.1,0.1"},
    "sampler": {
        "strategies": "similar_comments,random_comments",
        "max_samples": "1,5",
        "baselines": "no_comments",
    },
    "train": {"epochs": "8", "runs": "2", "learning_rate": "0.001"},
    "run": {"seed": "17", "baseline": "no_comments"},
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out")
    ap.add_argument("--annotators", type=int, default=30)
    ap.add_argument("--posts", type=int, default=60)
    ap.add_argument("--seed", type=int, default=17)
    args = ap.parse_args()

    parser = configparser.ConfigParser()
    parser.read_dict(BASE)
    parser["synth"]["n_annotators"] = str(args.annotators)
    parser["synth"]["n_posts"] = str(args.posts)
    parser["run"]["seed"] = str(args.seed)
    parser["run"]["out"] = args.out

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ini = out / "ablation.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        parser.write(fh)

    cfg = parse_config(ini)
    rows = run_pipeline(cfg)

    print(f"\n{'condition':<24}{'acc':<9}{'f1':<9}{'p vs baseline'}")
    for row in rows:
        p = "" if row["p_vs_baseline"] is None else f"{row['p_vs_baseline']:.2g}"
        print(f"{row['condition']:<24}{row['accuracy']:<9.3f}{row['macro_f1']:<9.3f}{p}")
    print(f"\nartifacts in {out}/ (report.tsv, summary.json, contexts/, effective.cfg)")


if __name__ == "__main__":
    main()
