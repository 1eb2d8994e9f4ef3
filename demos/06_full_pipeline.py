"""One-shot pipeline run on a generated intensity task.

Builds a small corpus, a lexicon and train/test files whose gold score is the
package's own weighted-F1 overlap feature plus noise, writes a config, and
runs the full staged pipeline.  The equivalent shell session:

    rtm run --config demo_run/run.cfg --out demo_run/out
    rtm evaluate --pred demo_run/out/predictions.tsv --gold gold.tsv
"""

import pathlib
import tempfile

import numpy as np

from rtm import TokenSeq, build_ngram_weights, load_corpus, weighted_overlap
from rtm.pipeline import parse_config, run_pipeline

with tempfile.TemporaryDirectory(prefix="rtm_demo_") as tmp:
    root = pathlib.Path(tmp)
    rng = np.random.default_rng(12)

    vocab = [f"w{i:03d}" for i in range(120)]
    happy = vocab[:20]
    other = vocab[20:]

    (root / "corpus.txt").write_text(
        "\n".join(" ".join(rng.choice(vocab, size=rng.integers(5, 9))) for _ in range(150)) + "\n"
    )
    (root / "lexicon.txt").write_text("#joy\n" + "\n".join(happy) + "\n")

    table = build_ngram_weights(load_corpus(root / "corpus.txt").sentences)
    target = TokenSeq.from_tokens(happy)

    lines = ["id\ttext\taffect\tscore"]
    for i in range(180):
        rho = (i / 179) * 0.8
        toks = [
            str(rng.choice(happy)) if rng.random() < rho else str(rng.choice(other))
            for _ in range(int(rng.integers(8, 14)))
        ]
        sim = weighted_overlap(TokenSeq.from_tokens(toks), target, table, (1, 2)).wf1
        gold = float(np.clip(sim + rng.normal(0, 0.05), 0, 1))
        lines.append(f"t{i:03d}\t{' '.join(toks)}\tjoy\t{gold!r}")
    order = rng.permutation(180)
    (root / "train.tsv").write_text("\n".join([lines[0]] + [lines[i + 1] for i in order[:140]]) + "\n")
    (root / "test.tsv").write_text("\n".join([lines[0]] + [lines[i + 1] for i in order[140:]]) + "\n")

    (root / "run.cfg").write_text(
        """task = intensity
architecture = plain
corpus = corpus.txt
train = train.tsv
test = test.tsv
lexicon = lexicon.txt
emotions = joy
budget = 150
grids = small
top_k = 2
seed = 7
"""
    )

    report = run_pipeline(parse_config(root / "run.cfg"), root / "out")

    print(f"run directory (removed on exit): {root}")
    print("\nstage timings (seconds):")
    for stage, secs in report.timings.items():
        print(f"  {stage:22} {secs:6.2f}")
    print("\ntest-set metrics:")
    print(report.metrics.format())
    print("\nfiles written:", sorted(p.name for p in (root / "out").iterdir()))
