-- lqolab fuzz reproducer; replay with:
--   ./build/tests/test_fuzz --replay tests/fuzz_corpus/seed_star_title.sql
-- note: Seed corpus: star around title with three fact spokes and an equality
-- note: predicate on a dimension-ish column.
-- seed_star_title
SELECT COUNT(*) FROM title AS t, movie_info AS mi, movie_keyword AS mk, cast_info AS ci WHERE t.id = mi.movie_id AND t.id = mk.movie_id AND t.id = ci.movie_id AND mi.info_type_id = 3 AND t.kind_id IS NOT NULL;
