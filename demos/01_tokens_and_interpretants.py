"""Tokenization, n-gram statistics and feature-decay interpretant selection.

Interpretant selection is the first pipeline stage: given the task texts, it
greedily picks corpus sentences that cover the task's n-grams, decaying the
value of already-covered material so later picks add something new.
"""

from rtm import FdaConfig, build_ngram_weights, extract_ngrams, select_interpretants, tokenize

# --- tokenization ----------------------------------------------------------

for text in ("Feeling GREAT today!!", "@coach #winning :)", "so-so day..."):
    seq = tokenize(text)
    print(f"{text!r:32} -> {list(seq.tokens)}  ({seq.char_count} chars)")

seq = tokenize("the cat chased the dog")
print("\nbigrams with multiplicity:", dict(extract_ngrams(seq, 2)))

# --- interpretant selection -------------------------------------------------

corpus = [
    tokenize(line)
    for line in [
        "the cat sat on the mat",
        "a dog chased the cat",
        "the cat chased a mouse",
        "stocks fell sharply on tuesday",
        "rain is expected tomorrow",
        "the dog sat on the mat",
        "a mouse ran from the dog",
    ]
]
task = [tokenize("my cat chased the dog around the mat")]

cfg = FdaConfig(max_order=2, decay=0.5, budget=5)
selection = select_interpretants(corpus, task, cfg)

print("\ngreedy selection (score halves once a sentence's n-grams are covered):")
for idx, score in zip(selection.selected_indices, selection.selection_scores):
    print(f"  score {score:5.3f}  [{idx}] {' '.join(corpus[idx].tokens)}")

# The selected sentences feed the n-gram weight table: relative frequencies
# that act as the likelihood of observing each n-gram.
chosen = [corpus[i] for i in selection.selected_indices]
table = build_ngram_weights(chosen)
print("\nweight of ('the',):", round(table.weight(("the",)), 4))
print("weight of ('cat',):", round(table.weight(("cat",)), 4))
print("floor weight of an unseen unigram:", round(table.weight(("zebra",)), 4))
