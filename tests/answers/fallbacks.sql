-- Shapes whose full masks only the oracle's fallbacks answer, on the
-- test_kernels database (seed-42 IMDB ScaleProfile::Medium().Scaled(0.01),
-- where cast_info has 1400 rows over 12 role_id values). Every join is on
-- the low-cardinality role_id, so any three cast_info rows joined in a
-- path explode past cost::kMaxIntermediateRows while a pair stays exact.
-- tests/answers/fallbacks.answers records their answers
-- (tests/test_answers.cc); tests/test_kernels.cc checks the product
-- oracle against fuzz::ScalarOracle on them.
--
-- A 4-cycle: no pair extends without exploding, and the cycle defeats
-- TreeCount, so the full mask overflows.
-- kernels_overflow_cycle
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3,
  cast_info AS c4
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id
  AND c3.role_id = c4.role_id AND c4.role_id = c1.role_id;
-- A chain: too large to materialize, counted by extending the pair
-- (c1, c2) through one edge (per-key multiplicities).
-- kernels_count_chain
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id;
-- A triangle: counted by extending the pair (c1, c2) through two edges
-- (the pair walk checks the residual edge under kMaxCountedPairs).
-- kernels_count_triangle
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id
  AND c3.role_id = c1.role_id;
-- A 4-chain: no 3-relation subset materializes, so no extension can
-- count it; only TreeCount's message passing does.
-- kernels_tree_count
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3,
  cast_info AS c4
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id
  AND c3.role_id = c4.role_id;
