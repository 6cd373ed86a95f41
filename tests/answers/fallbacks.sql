-- Self-joins of cast_info on role_id at the edge of the oracle's caps, on
-- the test_kernels database (seed-42 IMDB ScaleProfile::Medium().Scaled(0.01),
-- where cast_info has 1400 rows over 12 role_id values). Every join is on
-- the low-cardinality role_id, so a shape of m aliases counts
-- sum_k n_k^m over the role_id groups (tests/test_kernels.cc checks the
-- product oracle against that closed form), and any three cast_info rows
-- joined in full pass cost::kMaxIntermediateRows while a pair stays exact.
-- The tuple-at-a-time reference (fuzz::ScalarOracle) therefore overflows on
-- every full mask here. The product (exec::Oracle) decides its caps on the
-- weighted frontier rows it stores, so it counts the shapes whose frontier
-- stays narrow and overflows on the rest.
-- tests/answers/fallbacks.answers records their answers, which
-- tests/test_answers.cc checks.
--
-- A 4-cycle: (c1, c2, c3) keeps only c1 and c3, weighted by c2's matches,
-- and c4 closes the cycle on those.
-- kernels_overflow_cycle
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3,
  cast_info AS c4
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id
  AND c3.role_id = c4.role_id AND c4.role_id = c1.role_id;
-- A chain: extends the pair (c1, c2), which keeps only c2, by c3.
-- kernels_count_chain
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id;
-- A triangle: extends the pair (c1, c2), which keeps both, by c3 through
-- two edges (the second checked per visited pair).
-- kernels_count_triangle
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id
  AND c3.role_id = c1.role_id;
-- A 4-chain: every prefix keeps only its last alias.
-- kernels_tree_count
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3,
  cast_info AS c4
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id
  AND c3.role_id = c4.role_id;
-- A 4-clique: (c1, c2, c3) keeps all three, sum_k n_k^3 rows, past the
-- stored-rows cap.
-- clique4
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3,
  cast_info AS c4
WHERE c1.role_id = c2.role_id AND c1.role_id = c3.role_id
  AND c1.role_id = c4.role_id AND c2.role_id = c3.role_id
  AND c2.role_id = c4.role_id AND c3.role_id = c4.role_id;
-- An acyclic caterpillar: the spine c1-c2-c3 is listed before its legs
-- c4..c7, so the greedy join order joins the whole spine first while each
-- spine alias still has a leg to join, and (c1, c2, c3) stores
-- sum_k n_k^3 rows. Its count fits an int64; the oracle overflows anyway.
-- caterpillar
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3,
  cast_info AS c4, cast_info AS c5, cast_info AS c6, cast_info AS c7
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id
  AND c1.role_id = c4.role_id AND c2.role_id = c5.role_id
  AND c2.role_id = c6.role_id AND c3.role_id = c7.role_id;
-- An 8-chain: every prefix stores at most 1400 rows, but the count,
-- about 3.4e20, passes INT64_MAX.
-- chain8
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3,
  cast_info AS c4, cast_info AS c5, cast_info AS c6, cast_info AS c7,
  cast_info AS c8
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id
  AND c3.role_id = c4.role_id AND c4.role_id = c5.role_id
  AND c5.role_id = c6.role_id AND c6.role_id = c7.role_id
  AND c7.role_id = c8.role_id;
-- A 6-chain: counted, about 2.7e15.
-- chain6
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3,
  cast_info AS c4, cast_info AS c5, cast_info AS c6
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id
  AND c3.role_id = c4.role_id AND c4.role_id = c5.role_id
  AND c5.role_id = c6.role_id;
