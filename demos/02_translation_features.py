"""The 41 translation-performance features between a source and a target.

A text pair is treated like a translation act: n-gram overlap (weighted by
interpretant likelihoods), language-model fluency of the source, word
alignment agreement, and length statistics.
"""

import numpy as np

from rtm import (
    FEATURE_NAMES,
    FeatureResources,
    WittenBellLM,
    build_ngram_weights,
    extract_feature_vector,
    tokenize,
    train_aligner,
    weighted_overlap,
)

rng = np.random.default_rng(0)
vocab = "the a cat dog mouse mat sat ran chased happy sad day night sun rain".split()
sentences = [
    tokenize(" ".join(rng.choice(vocab, size=rng.integers(4, 8))))
    for _ in range(200)
]

resources = FeatureResources(
    weight_table=build_ngram_weights(sentences),
    lm=WittenBellLM(sentences, order=3),
    aligner=train_aligner([(s, s) for s in sentences], iterations=5),
)

src = tokenize("the happy cat sat on the mat")
for tgt_text in ("the happy cat sat on the mat", "happy sun day", "night rain"):
    tgt = tokenize(tgt_text)
    vec = extract_feature_vector(src, tgt, resources)
    named = dict(zip(FEATURE_NAMES, vec))
    print(f"\nsrc={' '.join(src)!r}  tgt={tgt_text!r}")
    for name in ("wf1_12", "wgm_1", "rec_1", "lm_bpw", "align_f1", "token_ratio"):
        print(f"  {name:12} {named[name]:8.4f}")

# Weighted vs plain overlap: matching a frequent word is worth more than a
# rare one under the weighted recall, while plain recall counts them equally.
table = resources.weight_table
target = tokenize("the mouse")
for text in ("the dog", "mouse dog"):
    ov = weighted_overlap(tokenize(text), target, table, orders=(1,))
    print(f"\noverlap {text!r} vs {' '.join(target)!r}: wrec={ov.wrec:.3f} plain rec={ov.rec:.3f}")
