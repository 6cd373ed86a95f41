-- lqolab fuzz reproducer; replay with:
--   ./build/tests/test_fuzz --replay tests/fuzz_corpus/seed_chain_companies.sql
-- note: Seed corpus: title -> movie_companies -> company_name chain with a
-- note: range predicate, the most common JOB-lite shape.
-- seed_chain_companies
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.production_year BETWEEN 1950 AND 2000;
