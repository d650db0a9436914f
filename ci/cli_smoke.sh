#!/usr/bin/env bash
# CLI smoke test over the toy corpus: every stage, the fold templates, the
# documented exit codes of malformed inputs, and the sha256 of the toy
# outputs, written to the file named by the one argument.
#
#   bash ci/cli_smoke.sh toy-outputs.sha256    (from the repository root)
#
# The outputs go to a fresh `mktemp -d` directory, which is removed on
# exit; only the hash file is kept.
set -e
test "$#" -eq 1 || { echo "usage: $0 HASH_FILE" >&2; exit 1; }
# the README toy pipeline, once with flags and once with the same
# options from a --config file: both must write the same tree
export PYTHONPATH=src
TOY=src/jatecs/data/toy
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
python -m jatecs.cli pipeline \
  --input $TOY/corpus.csv --categories $TOY/categories.txt \
  --extractor chargrams --ngram 4 \
  --func ig --policy rr --k 500 \
  --scheme tfidf --learner nb \
  --out $OUT/flags
printf '%s\n' "input=$TOY/corpus.csv" "categories=$TOY/categories.txt" \
  extractor=chargrams ngram=4 func=ig policy=rr k=500 \
  scheme=tfidf learner=nb > $OUT/toy.conf
python -m jatecs.cli pipeline --config $OUT/toy.conf --out $OUT/config
diff -r $OUT/flags $OUT/config
# a stemmed bag-of-words toy pipeline (stop list and Porter
# stemmer), hashed below, so outputs-match compares stems too
python -m jatecs.cli pipeline \
  --input $TOY/corpus.csv --categories $TOY/categories.txt \
  --extractor bow --stoplist en --stem en \
  --func ig --policy rr --k 500 \
  --scheme tfidf --learner nb \
  --out $OUT/stemmed
# eval counts each prediction row once, in any order: a shuffled
# copy of the predictions with one row repeated, next to their
# category table, must give the pipeline's eval.tsv
mkdir $OUT/reeval
{ head -n 1 $OUT/stemmed/predictions.tsv
  shuf --random-source=$TOY/corpus.csv $OUT/stemmed/predictions.tsv
} > $OUT/reeval/pred.tsv
cp $OUT/stemmed/predictions-categories.tsv $OUT/reeval/pred-categories.tsv
python -m jatecs.cli eval --pred $OUT/reeval/pred.tsv \
  --gold $OUT/stemmed/weight --out $OUT/reeval/eval.tsv
cmp $OUT/stemmed/eval.tsv $OUT/reeval/eval.tsv
# the index build for the other extractors, hashed below: a
# stemmed Set extractor, and n-grams across word boundaries
python -m jatecs.cli index \
  --input $TOY/corpus.csv --categories $TOY/categories.txt \
  --extractor set --stoplist en --stem en --out $OUT/set
python -m jatecs.cli index \
  --input $TOY/corpus.csv --categories $TOY/categories.txt \
  --extractor chargrams --word-bounded false --out $OUT/flat
# the toy index under two hash seeds: feature ids follow first-seen
# token order, never the hash order of a set or dict, so both trees
# must be the same bytes
for SEED in 1 2; do
  for EXTRACTOR in bow set chargrams; do
    PYTHONHASHSEED=$SEED python -m jatecs.cli index \
      --input $TOY/corpus.csv --categories $TOY/categories.txt \
      --extractor $EXTRACTOR --stoplist en --stem en \
      --out $OUT/hashseed-$SEED/$EXTRACTOR
  done
done
diff -r $OUT/hashseed-1 $OUT/hashseed-2
# a toy train/test split: two thirds of the lines train, the
# rest are --test-input, indexed with the same stem memo
awk 'NR % 3 != 0' $TOY/corpus.csv > $OUT/split-train.csv
awk 'NR % 3 == 0' $TOY/corpus.csv > $OUT/split-test.csv
python -m jatecs.cli pipeline \
  --input $OUT/split-train.csv --test-input $OUT/split-test.csv \
  --categories $TOY/categories.txt \
  --extractor bow --stoplist en --stem en \
  --func ig --policy rr --k 500 \
  --scheme tfidf --learner nb \
  --out $OUT/split
# a LibSVM index with fractional values, hashed below: its
# weights.tsv holds the explicit weights written with %r, not
# the counts plus ".0", so outputs-match compares those too
printf '%s\n' 'sports 1:0.5 3:2.25 7:1e-3' 'politics 2:1.75 3:0.1' \
  'sports,science 1:3 4:0.3333333333333333 7:12.5' \
  > $OUT/fractional.svm
python -m jatecs.cli index --reader libsvm \
  --input $OUT/fractional.svm --categories $TOY/categories.txt \
  --out $OUT/libsvm
# an ARFF index, hashed below: a string attribute's text goes
# through the extractor, and its numeric and nominal attributes
# are pre-extracted features read in the same build
printf '%s\n' '@relation toy' '@attribute text string' \
  '@attribute score numeric' '@attribute venue {home,away}' \
  '@attribute class {sports,politics,science}' '@data' \
  "'the match was won at home',2.5,home,sports" \
  "'a vote on the budget',0,away,politics" \
  "'atoms and the match of theory',1e-3,?,science" \
  '{0 "the away match",1 7,2 away,3 sports}' > $OUT/toy.arff
python -m jatecs.cli index --reader arff --input $OUT/toy.arff \
  --categories $TOY/categories.txt --extractor bow --stoplist en \
  --stem en --out $OUT/arff
# a --policy local toy index, for the fold templates below and
# for every learner on a local feature domain further down
W=$OUT/flags/weight
L=$OUT/local
python -m jatecs.cli tsr --index $OUT/flags/index --func ig \
  --policy local --k 50 --out $L/tsr
python -m jatecs.cli weight --index $L/tsr --scheme tfidf \
  --out $L/weight
# every TSR function's selection under every policy on the toy
# index, hashed with the other outputs below; rr and local also
# with k above F, which reads each ranking to its end
for FUNC in ig chi2 pmi or; do
  for POLICY in rr local max sum wavg; do
    python -m jatecs.cli tsr --index $OUT/flags/index \
      --func $FUNC --policy $POLICY --k 50 \
      --out $OUT/global/$FUNC-$POLICY
  done
  for POLICY in rr local; do
    python -m jatecs.cli tsr --index $OUT/flags/index \
      --func $FUNC --policy $POLICY --k 100000 \
      --out $OUT/global/$FUNC-$POLICY-all
  done
done
# the fold templates on the toy indexes, twice each: both runs
# must write the same files; the NB runs take fold models by
# subtracting each fold's class counts from the whole index's
for RUN in a b; do
  python -m jatecs.cli kfold --index $W --learner knn \
    --mode stratified --out $OUT/$RUN/kfold.tsv
  python -m jatecs.cli grid --index $W --learner knn \
    --param k=1,5 --out $OUT/$RUN/grid.tsv
  python -m jatecs.cli quantify --train $W --test $W --folds 5 \
    --out $OUT/$RUN/quantify.tsv
  python -m jatecs.cli quantify --train $W --test $W \
    --learner nb --folds 50 --out $OUT/$RUN/quantify-nb.tsv
  python -m jatecs.cli quantify --train $L/weight --test $L/weight \
    --learner nb --folds 50 --out $OUT/$RUN/quantify-nb-local.tsv
  python -m jatecs.cli kfold --index $OUT/flags/index --learner nb \
    --out $OUT/$RUN/kfold-nb-raw.tsv
  # leave-one-out on the 60-document weighted index: each fold
  # trains on the complement's rows, with no index copy; an NB
  # fold model is the whole index's cells less one document's
  for LEARNER in nb rocchio knn boost; do
    PARAM=
    if [ $LEARNER = boost ]; then PARAM="--param iterations=10"; fi
    python -m jatecs.cli kfold --index $W --learner $LEARNER \
      $PARAM --k 60 --out $OUT/$RUN/kfold-loo-$LEARNER.tsv
  done
  # and NB leave-one-out on the local feature domain
  python -m jatecs.cli kfold --index $L/weight --learner nb \
    --k 60 --out $OUT/$RUN/kfold-loo-nb-local.tsv
done
diff -r $OUT/a $OUT/b
# a non-finite BM25 k1 is a data error: exit 2
set +e
python -m jatecs.cli weight --index $W --scheme bm25 --k1 nan \
  --out $OUT/nan
CODE=$?
set -e
test "$CODE" -eq 2
# an n-gram size below 1 is a usage error: exit 1
set +e
python -m jatecs.cli index \
  --input $TOY/corpus.csv --categories $TOY/categories.txt \
  --extractor chargrams --ngram 0 --out $OUT/ngram0
CODE=$?
set -e
test "$CODE" -eq 1
# boosting rounds above the cap (10,000) are a data error: exit 2
# at once, with one `error:` line, before any fold is trained
set +e
timeout 30 python -m jatecs.cli kfold --index $W --learner boost \
  --param iterations=10001 --out $OUT/capped.tsv \
  2> $OUT/capped.err
CODE=$?
set -e
cat $OUT/capped.err
test "$CODE" -eq 2
test "$(wc -l < $OUT/capped.err)" -eq 1
grep -q '^error: ' $OUT/capped.err
test ! -e $OUT/capped.tsv
# a numpy warning is one `warning:` line, with no file name or
# echoed source line: an overflowing Rocchio beta, trained on the
# weighted index and applied to the unweighted one, exits 0
mkdir -p $OUT/overflow
python -m jatecs.cli train --index $W --learner rocchio \
  --param beta=1e308 --out $OUT/overflow/model \
  2> $OUT/overflow/train.err
python -m jatecs.cli classify --model $OUT/overflow/model \
  --index $OUT/flags/index --out $OUT/overflow/pred.tsv \
  2> $OUT/overflow/classify.err
cat $OUT/overflow/train.err $OUT/overflow/classify.err
test -s $OUT/overflow/train.err
test -s $OUT/overflow/classify.err
if grep -v '^warning:' $OUT/overflow/train.err \
    $OUT/overflow/classify.err; then
  exit 1
fi
# an Achlioptas model has no nonzeros count: --nonzeros must not
# change its bytes
for NZ in 2 50; do
  python -m jatecs.cli project --index $W --kind achlioptas \
    --dim 200 --nonzeros $NZ --out $OUT/achlioptas-$NZ
done
cmp $OUT/achlioptas-2/model.tsv $OUT/achlioptas-50/model.tsv
# a LibSVM value whose ceiling an int64 count cannot hold is a
# data error: exit 2, not an internal error
printf ' 1:1e19\n' > $OUT/huge.svm
set +e
python -m jatecs.cli index --reader libsvm --input $OUT/huge.svm \
  --categories $TOY/categories.txt --out $OUT/huge
CODE=$?
set -e
test "$CODE" -eq 2
# a repeated CSV document name is a data error on its line
printf 'd1\t\tx\nd1\t\ty\n' > $OUT/dup.csv
set +e
python -m jatecs.cli index --input $OUT/dup.csv \
  --categories $TOY/categories.txt --out $OUT/dup 2> $OUT/dup.err
CODE=$?
set -e
cat $OUT/dup.err
test "$CODE" -eq 2
grep -q ':2:' $OUT/dup.err
# a repeated ARFF attribute name is a data error on its line
printf '%s\n' '@relation r' '@attribute x numeric' \
  '@attribute x numeric' '@attribute class {sports,politics}' \
  '@data' '1,2,sports' > $OUT/dup.arff
set +e
python -m jatecs.cli index --reader arff --input $OUT/dup.arff \
  --categories $TOY/categories.txt --out $OUT/duparff \
  2> $OUT/duparff.err
CODE=$?
set -e
cat $OUT/duparff.err
test "$CODE" -eq 2
grep -q ':3:' $OUT/duparff.err
# two ARFF attributes yielding one feature text ('a=b') are a
# data error on the later one's line
printf '%s\n' '@relation r' '@attribute a {b,c}' \
  "@attribute 'a=b' numeric" '@attribute class {x,y}' \
  '@data' 'b,3,x' > $OUT/collide.arff
printf 'x\ny\n' > $OUT/collide-categories.txt
set +e
python -m jatecs.cli index --reader arff --input $OUT/collide.arff \
  --categories $OUT/collide-categories.txt --out $OUT/collide \
  2> $OUT/collide.err
CODE=$?
set -e
cat $OUT/collide.err
test "$CODE" -eq 2
grep -q ':3:' $OUT/collide.err
# classify rejects an index whose category table is not the
# model's: the toy corpus indexed with the category file reversed
tac $TOY/categories.txt > $OUT/reversed-categories.txt
python -m jatecs.cli index --input $TOY/corpus.csv \
  --categories $OUT/reversed-categories.txt \
  --extractor chargrams --ngram 4 --out $OUT/reversed
set +e
python -m jatecs.cli classify --model $OUT/flags/model \
  --index $OUT/reversed --out $OUT/reversed-pred.tsv
CODE=$?
set -e
test "$CODE" -eq 2
# eval rejects predictions whose category table (the side file
# classify wrote next to them) is not the gold index's
set +e
python -m jatecs.cli eval --pred $OUT/flags/predictions.tsv \
  --gold $OUT/reversed --out $OUT/reversed-eval.tsv
CODE=$?
set -e
test "$CODE" -eq 2
# a wrong id on line 3 of features.tsv fails the bulk concept
# parse; the line-by-line walk names the line
cp -r $OUT/flags/index $OUT/badid
sed -i '3s/^[0-9]*\t/7\t/' $OUT/badid/features.tsv
set +e
python -m jatecs.cli weight --index $OUT/badid --scheme tfidf \
  --out $OUT/badid-w 2> $OUT/badid.err
CODE=$?
set -e
cat $OUT/badid.err
test "$CODE" -eq 2
grep -q 'features.tsv:3:' $OUT/badid.err
# a repeated name in an index's features.tsv is a data error on
# its line; a CRLF copy of the index reads as the LF one
cp -r $OUT/flags/index $OUT/dupfeat
sed -i '2s/\t.*/\tdup/; 3s/\t.*/\tdup/' $OUT/dupfeat/features.tsv
set +e
python -m jatecs.cli weight --index $OUT/dupfeat --scheme tfidf \
  --out $OUT/dupfeat-w 2> $OUT/dupfeat.err
CODE=$?
set -e
cat $OUT/dupfeat.err
test "$CODE" -eq 2
grep -q 'features.tsv:' $OUT/dupfeat.err
cp -r $OUT/flags/index $OUT/crlf
sed -i 's/$/\r/' $OUT/crlf/*.tsv
python -m jatecs.cli weight --index $OUT/crlf --scheme tfidf \
  --out $OUT/crlf-w
python -m jatecs.cli weight --index $OUT/flags/index \
  --scheme tfidf --out $OUT/lf-w
diff -r $OUT/lf-w $OUT/crlf-w
# a weight that is not its count is read, not taken from the
# count: one n.0 made n.5 is still .5 after a tsr that keeps
# every feature
cp -r $OUT/flags/index $OUT/halfw
sed -i '1s/\.0$/.5/' $OUT/halfw/weights.tsv
python -m jatecs.cli tsr --index $OUT/halfw --func ig \
  --policy max --k 100000 --out $OUT/halfw-tsr
grep -q '\.5$' $OUT/halfw-tsr/weights.tsv
# a content count with a trailing space parses, but its weight
# "n .0" does not: a data error on weights.tsv's line
cp -r $OUT/flags/index $OUT/space
sed -i '1s/$/ /' $OUT/space/content.tsv
sed -i '1s/\.0$/ .0/' $OUT/space/weights.tsv
set +e
python -m jatecs.cli weight --index $OUT/space --scheme tfidf \
  --out $OUT/space-w 2> $OUT/space.err
CODE=$?
set -e
cat $OUT/space.err
test "$CODE" -eq 2
grep -q 'weights.tsv:1:' $OUT/space.err
# a negative document count in meta.tsv is a data error on its
# line, not an empty index
cp -r $OUT/flags/index $OUT/negmeta
sed -i 's/^documents\t.*/documents\t-1/' $OUT/negmeta/meta.tsv
set +e
python -m jatecs.cli weight --index $OUT/negmeta --scheme tfidf \
  --out $OUT/negmeta-w 2> $OUT/negmeta.err
CODE=$?
set -e
cat $OUT/negmeta.err
test "$CODE" -eq 2
grep -q 'meta.tsv:2:' $OUT/negmeta.err
# a content.tsv of only tabs and spaces next to an empty index's other
# files is a data error on its first line, not an empty relation
: > $OUT/empty.csv
python -m jatecs.cli index --input $OUT/empty.csv \
  --categories $TOY/categories.txt --out $OUT/blank
printf '\t\t\n \n' > $OUT/blank/content.tsv
set +e
python -m jatecs.cli weight --index $OUT/blank --scheme tfidf \
  --out $OUT/blank-w 2> $OUT/blank.err
CODE=$?
set -e
cat $OUT/blank.err
test "$CODE" -eq 2
grep -q 'content.tsv:1:' $OUT/blank.err
# a model whose model-meta.tsv first line is not this format's header
# (here the `kind` line models were saved with before it) is a data
# error naming that line
cp -r $OUT/flags/model $OUT/stale-model
sed -i '1s/.*/kind\tNaiveBayes/' $OUT/stale-model/model-meta.tsv
set +e
python -m jatecs.cli classify --model $OUT/stale-model \
  --index $OUT/flags/index --out $OUT/stale-pred.tsv 2> $OUT/stale.err
CODE=$?
set -e
cat $OUT/stale.err
test "$CODE" -eq 2
grep -q 'model-meta.tsv:1:' $OUT/stale.err
test ! -e $OUT/stale-pred.tsv
# a repeated (feature, category) row in a local index's domain.tsv is
# a data error naming the file, and nothing is written
cp -r $L/tsr $OUT/dupdomain
head -n 1 $L/tsr/domain.tsv >> $OUT/dupdomain/domain.tsv
set +e
python -m jatecs.cli weight --index $OUT/dupdomain --scheme tfidf \
  --out $OUT/dupdomain-w 2> $OUT/dupdomain.err
CODE=$?
set -e
cat $OUT/dupdomain.err
test "$CODE" -eq 2
grep -q 'domain.tsv:' $OUT/dupdomain.err
test ! -e $OUT/dupdomain-w
# every learner on the local feature domain: k-fold and
# train/classify per learner
for LEARNER in nb rocchio knn boost; do
  PARAM=
  if [ $LEARNER = boost ]; then PARAM="--param iterations=10"; fi
  python -m jatecs.cli kfold --index $L/weight --learner $LEARNER \
    $PARAM --mode stratified --out $L/kfold-$LEARNER.tsv
  python -m jatecs.cli train --index $L/weight --learner $LEARNER \
    $PARAM --out $L/model-$LEARNER
  python -m jatecs.cli classify --model $L/model-$LEARNER \
    --index $L/weight --out $L/classify-$LEARNER.tsv
done
# the hashes of the toy outputs above, for the outputs-match job;
# model.pkl is left out, as pickle bytes also depend on the numpy
# release a leg installs
(cd $OUT && find flags a local global stemmed set flat split libsvm arff \
  -type f \
  ! -name model.pkl \
  | LC_ALL=C sort \
  | xargs sha256sum) > "$1"
