-- lqolab fuzz reproducer; replay with:
--   ./build/tests/test_fuzz --replay tests/fuzz_corpus/seed_clique_movie_id.sql
-- note: Seed corpus: cyclic sibling clique over movie_id fk columns (no title in
-- note: the join graph) — exercises the oracle's cyclic-mask path.
-- seed_clique_movie_id
SELECT COUNT(*) FROM movie_info AS mi, movie_keyword AS mk, movie_companies AS mc WHERE mi.movie_id = mk.movie_id AND mi.movie_id = mc.movie_id AND mk.movie_id = mc.movie_id AND mc.company_type_id BETWEEN 1 AND 2;
