-- lqolab fuzz reproducer; replay with:
--   ./build/tests/test_fuzz --replay tests/fuzz_corpus/seed_adversarial_range.sql
-- note: Seed corpus: out-of-domain and inverted ranges — the histogram edge
-- note: cases fixed alongside the fuzzer (negative lo below bounds.front(),
-- note: empty range with lo > hi).
-- seed_adversarial_range
SELECT COUNT(*) FROM title AS t, movie_keyword AS mk WHERE t.id = mk.movie_id AND t.production_year BETWEEN -2000 AND 1900 AND mk.keyword_id BETWEEN 100 AND 1 AND t.episode_nr IS NULL;
