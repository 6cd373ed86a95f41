-- JOB-lite: 33 join templates, 113 queries over the synthetic IMDB
-- database (3-16 joins). Rendered once from the C++ workload builder
-- with query::Query::ToSql; loaded through the SQL frontend.

-- 1a
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_type AS ct, movie_info_idx AS midx, info_type AS it WHERE t.id = mc.movie_id AND mc.company_type_id = ct.id AND t.id = midx.movie_id AND midx.info_type_id = it.id AND ct.kind = 'production companies' AND it.info = 'top 250 rank' AND mc.note IS NOT NULL AND t.production_year BETWEEN 1950 AND 2010;

-- 1b
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_type AS ct, movie_info_idx AS midx, info_type AS it WHERE t.id = mc.movie_id AND mc.company_type_id = ct.id AND t.id = midx.movie_id AND midx.info_type_id = it.id AND ct.kind = 'production companies' AND it.info = 'votes' AND t.production_year BETWEEN 1995 AND 2015;

-- 1c
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_type AS ct, movie_info_idx AS midx, info_type AS it WHERE t.id = mc.movie_id AND mc.company_type_id = ct.id AND t.id = midx.movie_id AND midx.info_type_id = it.id AND ct.kind = 'production companies' AND it.info = 'rating' AND mc.note IS NOT NULL AND t.production_year BETWEEN 2005 AND 2000000000;

-- 1d
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_type AS ct, movie_info_idx AS midx, info_type AS it WHERE t.id = mc.movie_id AND mc.company_type_id = ct.id AND t.id = midx.movie_id AND midx.info_type_id = it.id AND ct.kind = 'production companies' AND it.info = 'votes' AND t.production_year BETWEEN 1980 AND 2005;

-- 2a
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mc.movie_id = mk.movie_id AND cn.country_code = '[us]' AND k.keyword = 'kw_0';

-- 2b
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mc.movie_id = mk.movie_id AND cn.country_code = '[gb]' AND k.keyword = 'kw_1';

-- 2c
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mc.movie_id = mk.movie_id AND cn.country_code = '[de]' AND k.keyword = 'kw_2';

-- 2d
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mc.movie_id = mk.movie_id AND cn.country_code = '[fr]' AND k.keyword = 'kw_3';

-- 3a
SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k, movie_info AS mi WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = mi.movie_id AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND mi.info IN ('drama', 'comedy', 'romance', 'family') AND t.production_year BETWEEN 1991 AND 2000000000;

-- 3b
SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k, movie_info AS mi WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = mi.movie_id AND k.keyword IN ('kw_0', 'kw_12') AND mi.info IN ('horror', 'thriller', 'crime', 'mystery') AND t.production_year BETWEEN 2001 AND 2000000000;

-- 3c
SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k, movie_info AS mi WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = mi.movie_id AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND mi.info IN ('documentary', 'biography', 'history', 'short') AND t.production_year BETWEEN 2011 AND 2000000000;

-- 4a
SELECT COUNT(*) FROM title AS t, movie_info_idx AS midx, info_type AS it, movie_keyword AS mk, keyword AS k WHERE t.id = midx.movie_id AND midx.info_type_id = it.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND it.info = 'rating' AND midx.info IN ('rating_5', 'rating_6', 'rating_7', 'rating_8', 'rating_9') AND k.keyword IN ('kw_1', 'kw_4', 'kw_9');

-- 4b
SELECT COUNT(*) FROM title AS t, movie_info_idx AS midx, info_type AS it, movie_keyword AS mk, keyword AS k WHERE t.id = midx.movie_id AND midx.info_type_id = it.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND it.info = 'rating' AND midx.info IN ('rating_0', 'rating_1', 'rating_2', 'rating_3', 'rating_4') AND k.keyword IN ('kw_0', 'kw_12');

-- 4c
SELECT COUNT(*) FROM title AS t, movie_info_idx AS midx, info_type AS it, movie_keyword AS mk, keyword AS k WHERE t.id = midx.movie_id AND midx.info_type_id = it.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND it.info = 'rating' AND midx.info IN ('rating_4', 'rating_5', 'rating_6', 'rating_7') AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977');

-- 5a
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_type AS ct, movie_info AS mi, info_type AS it WHERE t.id = mc.movie_id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it.id AND ct.kind = 'production companies' AND it.info = 'languages' AND mi.info = 'lang_0' AND t.production_year BETWEEN 1950 AND 2010;

-- 5b
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_type AS ct, movie_info AS mi, info_type AS it WHERE t.id = mc.movie_id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it.id AND ct.kind = 'distributors' AND it.info = 'languages' AND mi.info = 'lang_1' AND mc.note IS NOT NULL AND t.production_year BETWEEN 1995 AND 2015;

-- 5c
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_type AS ct, movie_info AS mi, info_type AS it WHERE t.id = mc.movie_id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it.id AND ct.kind = 'production companies' AND it.info = 'languages' AND mi.info = 'lang_2' AND t.production_year BETWEEN 2005 AND 2000000000;

-- 6a
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND n.name_pcode_cf = 'np_0' AND t.production_year BETWEEN 1950 AND 2010;

-- 6b
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword IN ('kw_0', 'kw_12') AND n.name_pcode_cf = 'np_1' AND t.production_year BETWEEN 1995 AND 2015;

-- 6c
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND n.name_pcode_cf = 'np_3' AND t.production_year BETWEEN 2005 AND 2000000000;

-- 6d
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword IN ('kw_2', 'kw_6', 'kw_30', 'kw_88') AND n.name_pcode_cf = 'np_7' AND t.production_year BETWEEN 1980 AND 2005;

-- 6e
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword IN ('kw_0', 'kw_7', 'kw_5000') AND n.name_pcode_cf = 'np_15' AND t.production_year BETWEEN 2010 AND 2000000000;

-- 6f
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword IN ('kw_3', 'kw_41', 'kw_11') AND n.name_pcode_cf = 'np_40' AND t.production_year BETWEEN -2000000000 AND 2000;

-- 7a
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, person_info AS pi, info_type AS it, movie_link AS ml, link_type AS lt WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND n.id = pi.person_id AND pi.info_type_id = it.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND it.info = 'mini biography' AND lt.link = 'follows' AND n.gender = 'm' AND t.production_year BETWEEN 1976 AND 2000000000;

-- 7b
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, person_info AS pi, info_type AS it, movie_link AS ml, link_type AS lt WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND n.id = pi.person_id AND pi.info_type_id = it.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND it.info = 'mini biography' AND lt.link = 'remake of' AND n.gender = 'f' AND t.production_year BETWEEN 1991 AND 2000000000;

-- 7c
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, person_info AS pi, info_type AS it, movie_link AS ml, link_type AS lt WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND n.id = pi.person_id AND pi.info_type_id = it.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND it.info = 'mini biography' AND lt.link = 'features' AND n.gender = 'm' AND t.production_year BETWEEN 2006 AND 2000000000;

-- 8a
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, role_type AS rt, movie_companies AS mc, company_name AS cn WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND rt.role = 'actress' AND cn.country_code = '[us]' AND ci.note = '(voice)';

-- 8b
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, role_type AS rt, movie_companies AS mc, company_name AS cn WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND rt.role = 'actor' AND cn.country_code = '[gb]';

-- 8c
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, role_type AS rt, movie_companies AS mc, company_name AS cn WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND rt.role = 'writer' AND cn.country_code = '[de]';

-- 8d
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, role_type AS rt, movie_companies AS mc, company_name AS cn WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND rt.role = 'producer' AND cn.country_code = '[fr]' AND ci.note = '(voice)';

-- 9a
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND rt.role = 'actress' AND n.gender = 'f' AND cn.country_code IN ('[us]') AND t.production_year BETWEEN 1950 AND 2010;

-- 9b
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND rt.role = 'actor' AND n.gender = 'm' AND cn.country_code IN ('[de]', '[fr]', '[it]', '[es]') AND t.production_year BETWEEN 1995 AND 2015;

-- 9c
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND rt.role = 'actress' AND n.gender = 'f' AND cn.country_code IN ('[jp]', '[kr]', '[cn]', '[hk]') AND t.production_year BETWEEN 2005 AND 2000000000;

-- 9d
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND rt.role = 'actress' AND n.gender = 'f' AND cn.country_code IN ('[gb]', '[ie]', '[au]', '[ca]') AND t.production_year BETWEEN 1980 AND 2005;

-- 10a
SELECT COUNT(*) FROM title AS t, cast_info AS ci, char_name AS chn, role_type AS rt, movie_companies AS mc, company_type AS ct, company_name AS cn WHERE t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_type_id = ct.id AND mc.company_id = cn.id AND ci.note = '(voice)' AND cn.country_code IN ('[us]') AND rt.role = 'actor';

-- 10b
SELECT COUNT(*) FROM title AS t, cast_info AS ci, char_name AS chn, role_type AS rt, movie_companies AS mc, company_type AS ct, company_name AS cn WHERE t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_type_id = ct.id AND mc.company_id = cn.id AND ci.note = '(uncredited)' AND cn.country_code IN ('[de]', '[fr]', '[it]', '[es]') AND rt.role = 'actress';

-- 10c
SELECT COUNT(*) FROM title AS t, cast_info AS ci, char_name AS chn, role_type AS rt, movie_companies AS mc, company_type AS ct, company_name AS cn WHERE t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_type_id = ct.id AND mc.company_id = cn.id AND ci.note = '(credit only)' AND cn.country_code IN ('[jp]', '[kr]', '[cn]', '[hk]') AND rt.role = 'producer';

-- 11a
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND cn.country_code IN ('[us]') AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND lt.link IN ('follows', 'followed by') AND t.production_year BETWEEN 1951 AND 2000000000;

-- 11b
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND cn.country_code IN ('[de]', '[fr]', '[it]', '[es]') AND k.keyword IN ('kw_0', 'kw_12') AND lt.link IN ('remake of', 'remade as') AND t.production_year BETWEEN 1971 AND 2000000000;

-- 11c
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND cn.country_code IN ('[jp]', '[kr]', '[cn]', '[hk]') AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND lt.link IN ('features', 'featured in') AND t.production_year BETWEEN 1991 AND 2000000000;

-- 11d
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND cn.country_code IN ('[gb]', '[ie]', '[au]', '[ca]') AND k.keyword IN ('kw_2', 'kw_6', 'kw_30', 'kw_88') AND lt.link IN ('references', 'referenced in') AND t.production_year BETWEEN 2011 AND 2000000000;

-- 12a
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2 WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND mi.movie_id = midx.movie_id AND it1.info = 'genres' AND it2.info = 'rating' AND mi.info IN ('drama', 'comedy', 'romance', 'family') AND midx.info IN ('rating_5', 'rating_6', 'rating_7', 'rating_8', 'rating_9') AND cn.country_code = '[us]';

-- 12b
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2 WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND mi.movie_id = midx.movie_id AND it1.info = 'genres' AND it2.info = 'rating' AND mi.info IN ('horror', 'thriller', 'crime', 'mystery') AND midx.info IN ('rating_0', 'rating_1', 'rating_2', 'rating_3', 'rating_4') AND cn.country_code = '[gb]';

-- 12c
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2 WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND mi.movie_id = midx.movie_id AND it1.info = 'genres' AND it2.info = 'rating' AND mi.info IN ('documentary', 'biography', 'history', 'short') AND midx.info IN ('rating_4', 'rating_5', 'rating_6', 'rating_7') AND cn.country_code = '[de]';

-- 13a
SELECT COUNT(*) FROM title AS t, kind_type AS kt, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2 WHERE t.kind_id = kt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND kt.kind = 'movie' AND it1.info = 'release dates' AND it2.info = 'rating' AND midx.info IN ('rating_5', 'rating_6', 'rating_7', 'rating_8', 'rating_9') AND cn.country_code = '[us]' AND ct.kind = 'production companies';

-- 13b
SELECT COUNT(*) FROM title AS t, kind_type AS kt, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2 WHERE t.kind_id = kt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND kt.kind = 'episode' AND it1.info = 'release dates' AND it2.info = 'rating' AND midx.info IN ('rating_0', 'rating_1', 'rating_2', 'rating_3', 'rating_4') AND cn.country_code = '[gb]' AND ct.kind = 'production companies';

-- 13c
SELECT COUNT(*) FROM title AS t, kind_type AS kt, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2 WHERE t.kind_id = kt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND kt.kind = 'tv series' AND it1.info = 'release dates' AND it2.info = 'rating' AND midx.info IN ('rating_4', 'rating_5', 'rating_6', 'rating_7') AND cn.country_code = '[de]' AND ct.kind = 'production companies';

-- 13d
SELECT COUNT(*) FROM title AS t, kind_type AS kt, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2 WHERE t.kind_id = kt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND kt.kind = 'tv movie' AND it1.info = 'release dates' AND it2.info = 'rating' AND midx.info IN ('rating_7', 'rating_8', 'rating_9') AND cn.country_code = '[fr]' AND ct.kind = 'production companies';

-- 14a
SELECT COUNT(*) FROM title AS t, kind_type AS kt, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND kt.kind = 'movie' AND it1.info = 'countries' AND it2.info = 'rating' AND mi.info IN ('country_0') AND midx.info IN ('rating_5', 'rating_6', 'rating_7', 'rating_8', 'rating_9') AND k.keyword IN ('kw_1', 'kw_4', 'kw_9');

-- 14b
SELECT COUNT(*) FROM title AS t, kind_type AS kt, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND kt.kind = 'episode' AND it1.info = 'countries' AND it2.info = 'rating' AND mi.info IN ('country_1') AND midx.info IN ('rating_0', 'rating_1', 'rating_2', 'rating_3', 'rating_4') AND k.keyword IN ('kw_0', 'kw_12');

-- 14c
SELECT COUNT(*) FROM title AS t, kind_type AS kt, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND kt.kind = 'tv series' AND it1.info = 'countries' AND it2.info = 'rating' AND mi.info IN ('country_2') AND midx.info IN ('rating_4', 'rating_5', 'rating_6', 'rating_7') AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977');

-- 15a
SELECT COUNT(*) FROM title AS t, aka_title AS at, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it1, movie_keyword AS mk, keyword AS k, company_type AS ct WHERE t.id = at.movie_id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mc.movie_id = mi.movie_id AND cn.country_code = '[us]' AND it1.info = 'release dates' AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND t.production_year BETWEEN 1950 AND 2010;

-- 15b
SELECT COUNT(*) FROM title AS t, aka_title AS at, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it1, movie_keyword AS mk, keyword AS k, company_type AS ct WHERE t.id = at.movie_id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mc.movie_id = mi.movie_id AND cn.country_code = '[us]' AND it1.info = 'release dates' AND k.keyword IN ('kw_0', 'kw_12') AND t.production_year BETWEEN 1995 AND 2015;

-- 15c
SELECT COUNT(*) FROM title AS t, aka_title AS at, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it1, movie_keyword AS mk, keyword AS k, company_type AS ct WHERE t.id = at.movie_id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mc.movie_id = mi.movie_id AND cn.country_code = '[us]' AND it1.info = 'release dates' AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND t.production_year BETWEEN 2005 AND 2000000000;

-- 15d
SELECT COUNT(*) FROM title AS t, aka_title AS at, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it1, movie_keyword AS mk, keyword AS k, company_type AS ct WHERE t.id = at.movie_id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mc.movie_id = mi.movie_id AND cn.country_code = '[us]' AND it1.info = 'release dates' AND k.keyword IN ('kw_2', 'kw_6', 'kw_30', 'kw_88') AND t.production_year BETWEEN 1980 AND 2005;

-- 16a
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND cn.country_code = '[us]' AND t.episode_nr BETWEEN 1 AND 10;

-- 16b
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword IN ('kw_0', 'kw_12') AND cn.country_code = '[gb]' AND t.season_nr BETWEEN 3 AND 2000000000;

-- 16c
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND cn.country_code = '[de]' AND t.episode_nr BETWEEN 1 AND 10;

-- 16d
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword IN ('kw_2', 'kw_6', 'kw_30', 'kw_88') AND cn.country_code = '[fr]' AND t.season_nr BETWEEN 3 AND 2000000000;

-- 17a
SELECT COUNT(*) FROM title AS t, cast_info AS ci, char_name AS chn, name AS n, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.person_id = n.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND n.name_pcode_cf = 'np_0' AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND cn.country_code IN ('[us]');

-- 17b
SELECT COUNT(*) FROM title AS t, cast_info AS ci, char_name AS chn, name AS n, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.person_id = n.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND n.name_pcode_cf = 'np_1' AND k.keyword IN ('kw_0', 'kw_12') AND cn.country_code IN ('[de]', '[fr]', '[it]', '[es]');

-- 17c
SELECT COUNT(*) FROM title AS t, cast_info AS ci, char_name AS chn, name AS n, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.person_id = n.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND n.name_pcode_cf = 'np_3' AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND cn.country_code IN ('[jp]', '[kr]', '[cn]', '[hk]');

-- 17d
SELECT COUNT(*) FROM title AS t, cast_info AS ci, char_name AS chn, name AS n, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.person_id = n.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND n.name_pcode_cf = 'np_7' AND k.keyword IN ('kw_2', 'kw_6', 'kw_30', 'kw_88') AND cn.country_code IN ('[gb]', '[ie]', '[au]', '[ca]');

-- 17e
SELECT COUNT(*) FROM title AS t, cast_info AS ci, char_name AS chn, name AS n, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.person_id = n.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND n.name_pcode_cf = 'np_15' AND k.keyword IN ('kw_0', 'kw_7', 'kw_5000') AND cn.country_code IN ('[se]', '[dk]', '[no]', '[fi]');

-- 17f
SELECT COUNT(*) FROM title AS t, cast_info AS ci, char_name AS chn, name AS n, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.person_id = n.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND n.name_pcode_cf = 'np_40' AND k.keyword IN ('kw_3', 'kw_41', 'kw_11') AND cn.country_code IN ('[us]');

-- 18a
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2 WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND n.gender = 'm' AND it1.info = 'genres' AND it2.info = 'votes' AND mi.info IN ('drama', 'comedy', 'romance', 'family') AND midx.info IN ('votes_6', 'votes_7', 'votes_8', 'votes_9', 'votes_10', 'votes_11');

-- 18b
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2 WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND n.gender = 'f' AND it1.info = 'genres' AND it2.info = 'votes' AND mi.info IN ('horror', 'thriller', 'crime', 'mystery') AND midx.info IN ('votes_0', 'votes_1', 'votes_2', 'votes_3', 'votes_4', 'votes_5');

-- 18c
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2 WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND n.gender = 'm' AND it1.info = 'genres' AND it2.info = 'votes' AND mi.info IN ('documentary', 'biography', 'history', 'short') AND midx.info IN ('votes_3', 'votes_4', 'votes_5', 'votes_6', 'votes_7', 'votes_8');

-- 19a
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id AND mi.info_type_id = it.id AND it.info = 'release dates' AND n.gender = 'f' AND rt.role = 'actress' AND cn.country_code = '[us]' AND ci.note = '(voice)' AND t.production_year BETWEEN 1950 AND 2010;

-- 19b
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id AND mi.info_type_id = it.id AND it.info = 'release dates' AND n.gender = 'f' AND rt.role = 'actress' AND cn.country_code = '[gb]' AND t.production_year BETWEEN 1995 AND 2015;

-- 19c
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id AND mi.info_type_id = it.id AND it.info = 'release dates' AND n.gender = 'f' AND rt.role = 'actress' AND cn.country_code = '[de]' AND t.production_year BETWEEN 2005 AND 2000000000;

-- 19d
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id AND mi.info_type_id = it.id AND it.info = 'release dates' AND n.gender = 'f' AND rt.role = 'actress' AND cn.country_code = '[fr]' AND t.production_year BETWEEN 1980 AND 2005;

-- 20a
SELECT COUNT(*) FROM title AS t, kind_type AS kt, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, cast_info AS ci, char_name AS chn, name AS n, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.person_id = n.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND kt.kind = 'movie' AND cct1.kind = 'cast' AND cct2.kind = 'complete' AND k.keyword IN ('kw_1', 'kw_4', 'kw_9');

-- 20b
SELECT COUNT(*) FROM title AS t, kind_type AS kt, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, cast_info AS ci, char_name AS chn, name AS n, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.person_id = n.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND kt.kind = 'movie' AND cct1.kind = 'cast' AND cct2.kind = 'complete+verified' AND k.keyword IN ('kw_0', 'kw_12');

-- 20c
SELECT COUNT(*) FROM title AS t, kind_type AS kt, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, cast_info AS ci, char_name AS chn, name AS n, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.person_id = n.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND kt.kind = 'movie' AND cct1.kind = 'crew' AND cct2.kind = 'complete' AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977');

-- 21a
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt, title AS t2, movie_info AS mi WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND t.id = mi.movie_id AND cn.country_code IN ('[us]') AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND lt.link IN ('follows', 'followed by') AND mi.info IN ('country_0');

-- 21b
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt, title AS t2, movie_info AS mi WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND t.id = mi.movie_id AND cn.country_code IN ('[de]', '[fr]', '[it]', '[es]') AND k.keyword IN ('kw_0', 'kw_12') AND lt.link IN ('remake of', 'remade as') AND mi.info IN ('country_1');

-- 21c
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt, title AS t2, movie_info AS mi WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND t.id = mi.movie_id AND cn.country_code IN ('[jp]', '[kr]', '[cn]', '[hk]') AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND lt.link IN ('features', 'featured in') AND mi.info IN ('country_2');

-- 22a
SELECT COUNT(*) FROM title AS t, kind_type AS kt, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mi.movie_id = mc.movie_id AND kt.kind = 'movie' AND it1.info = 'countries' AND it2.info = 'votes' AND mi.info IN ('country_0') AND midx.info IN ('votes_6', 'votes_7', 'votes_8', 'votes_9', 'votes_10', 'votes_11') AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND cn.country_code IN ('[us]') AND t.production_year BETWEEN 1971 AND 2000000000;

-- 22b
SELECT COUNT(*) FROM title AS t, kind_type AS kt, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mi.movie_id = mc.movie_id AND kt.kind = 'episode' AND it1.info = 'countries' AND it2.info = 'votes' AND mi.info IN ('country_1') AND midx.info IN ('votes_0', 'votes_1', 'votes_2', 'votes_3', 'votes_4', 'votes_5') AND k.keyword IN ('kw_0', 'kw_12') AND cn.country_code IN ('[de]', '[fr]', '[it]', '[es]') AND t.production_year BETWEEN 1976 AND 2000000000;

-- 22c
SELECT COUNT(*) FROM title AS t, kind_type AS kt, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mi.movie_id = mc.movie_id AND kt.kind = 'tv series' AND it1.info = 'countries' AND it2.info = 'votes' AND mi.info IN ('country_2') AND midx.info IN ('votes_3', 'votes_4', 'votes_5', 'votes_6', 'votes_7', 'votes_8') AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND cn.country_code IN ('[jp]', '[kr]', '[cn]', '[hk]') AND t.production_year BETWEEN 1981 AND 2000000000;

-- 22d
SELECT COUNT(*) FROM title AS t, kind_type AS kt, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mi.movie_id = mc.movie_id AND kt.kind = 'tv movie' AND it1.info = 'countries' AND it2.info = 'votes' AND mi.info IN ('country_3') AND midx.info IN ('votes_9', 'votes_10', 'votes_11') AND k.keyword IN ('kw_2', 'kw_6', 'kw_30', 'kw_88') AND cn.country_code IN ('[gb]', '[ie]', '[au]', '[ca]') AND t.production_year BETWEEN 1986 AND 2000000000;

-- 23a
SELECT COUNT(*) FROM title AS t, kind_type AS kt, complete_cast AS cc, comp_cast_type AS cct1, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = cc.movie_id AND cc.status_id = cct1.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND cct1.kind = 'complete' AND kt.kind = 'movie' AND it1.info = 'release dates' AND cn.country_code = '[us]' AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND t.production_year BETWEEN 1986 AND 2000000000;

-- 23b
SELECT COUNT(*) FROM title AS t, kind_type AS kt, complete_cast AS cc, comp_cast_type AS cct1, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = cc.movie_id AND cc.status_id = cct1.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND cct1.kind = 'complete' AND kt.kind = 'episode' AND it1.info = 'release dates' AND cn.country_code = '[us]' AND k.keyword IN ('kw_0', 'kw_12') AND t.production_year BETWEEN 1991 AND 2000000000;

-- 23c
SELECT COUNT(*) FROM title AS t, kind_type AS kt, complete_cast AS cc, comp_cast_type AS cct1, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = cc.movie_id AND cc.status_id = cct1.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND cct1.kind = 'complete' AND kt.kind = 'tv series' AND it1.info = 'release dates' AND cn.country_code = '[us]' AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND t.production_year BETWEEN 1996 AND 2000000000;

-- 24a
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id AND mi.info_type_id = it.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND n.name_pcode_cf = 'np_0' AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND rt.role = 'actress' AND it.info = 'release dates' AND cn.country_code = '[us]' AND t.production_year BETWEEN 1991 AND 2000000000;

-- 24b
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id AND mi.info_type_id = it.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND n.name_pcode_cf = 'np_1' AND k.keyword IN ('kw_0', 'kw_12') AND rt.role = 'actor' AND it.info = 'release dates' AND cn.country_code = '[us]' AND t.production_year BETWEEN 1991 AND 2000000000;

-- 25a
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND it1.info = 'genres' AND it2.info = 'rating' AND mi.info IN ('drama', 'comedy', 'romance', 'family') AND midx.info IN ('rating_5', 'rating_6', 'rating_7', 'rating_8', 'rating_9') AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND n.gender = 'm';

-- 25b
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND it1.info = 'genres' AND it2.info = 'rating' AND mi.info IN ('horror', 'thriller', 'crime', 'mystery') AND midx.info IN ('rating_0', 'rating_1', 'rating_2', 'rating_3', 'rating_4') AND k.keyword IN ('kw_0', 'kw_12') AND n.gender = 'm';

-- 25c
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND it1.info = 'genres' AND it2.info = 'rating' AND mi.info IN ('documentary', 'biography', 'history', 'short') AND midx.info IN ('rating_4', 'rating_5', 'rating_6', 'rating_7') AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND n.gender = 'm';

-- 26a
SELECT COUNT(*) FROM title AS t, kind_type AS kt, complete_cast AS cc, comp_cast_type AS cct1, cast_info AS ci, char_name AS chn, name AS n, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k, movie_companies AS mc WHERE t.kind_id = kt.id AND t.id = cc.movie_id AND cc.status_id = cct1.id AND t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.person_id = n.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = mc.movie_id AND cct1.kind = 'complete+verified' AND kt.kind = 'movie' AND it2.info = 'rating' AND midx.info IN ('rating_5', 'rating_6', 'rating_7', 'rating_8', 'rating_9') AND k.keyword IN ('kw_1', 'kw_4', 'kw_9');

-- 26b
SELECT COUNT(*) FROM title AS t, kind_type AS kt, complete_cast AS cc, comp_cast_type AS cct1, cast_info AS ci, char_name AS chn, name AS n, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k, movie_companies AS mc WHERE t.kind_id = kt.id AND t.id = cc.movie_id AND cc.status_id = cct1.id AND t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.person_id = n.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = mc.movie_id AND cct1.kind = 'complete' AND kt.kind = 'movie' AND it2.info = 'rating' AND midx.info IN ('rating_0', 'rating_1', 'rating_2', 'rating_3', 'rating_4') AND k.keyword IN ('kw_0', 'kw_12');

-- 26c
SELECT COUNT(*) FROM title AS t, kind_type AS kt, complete_cast AS cc, comp_cast_type AS cct1, cast_info AS ci, char_name AS chn, name AS n, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k, movie_companies AS mc WHERE t.kind_id = kt.id AND t.id = cc.movie_id AND cc.status_id = cct1.id AND t.id = ci.movie_id AND ci.person_role_id = chn.id AND ci.person_id = n.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = mc.movie_id AND cct1.kind = 'complete+verified' AND kt.kind = 'movie' AND it2.info = 'rating' AND midx.info IN ('rating_4', 'rating_5', 'rating_6', 'rating_7') AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977');

-- 27a
SELECT COUNT(*) FROM title AS t, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt, title AS t2 WHERE t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND cct1.kind = 'cast' AND cct2.kind = 'complete' AND cn.country_code IN ('[us]') AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND lt.link IN ('follows', 'followed by') AND mi.info IN ('lang_0') AND t.production_year BETWEEN 1950 AND 2010;

-- 27b
SELECT COUNT(*) FROM title AS t, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt, title AS t2 WHERE t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND cct1.kind = 'cast' AND cct2.kind = 'complete' AND cn.country_code IN ('[de]', '[fr]', '[it]', '[es]') AND k.keyword IN ('kw_0', 'kw_12') AND lt.link IN ('remake of', 'remade as') AND mi.info IN ('lang_1') AND t.production_year BETWEEN 1995 AND 2015;

-- 27c
SELECT COUNT(*) FROM title AS t, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt, title AS t2 WHERE t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND cct1.kind = 'cast' AND cct2.kind = 'complete' AND cn.country_code IN ('[jp]', '[kr]', '[cn]', '[hk]') AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND lt.link IN ('features', 'featured in') AND mi.info IN ('lang_2') AND t.production_year BETWEEN 2005 AND 2000000000;

-- 28a
SELECT COUNT(*) FROM title AS t, kind_type AS kt, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mi.movie_id = midx.movie_id AND kt.kind IN ('movie', 'episode') AND cct1.kind = 'crew' AND cct2.kind = 'complete' AND it1.info = 'countries' AND mi.info IN ('country_0') AND midx.info IN ('votes_6', 'votes_7', 'votes_8', 'votes_9', 'votes_10', 'votes_11') AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND t.production_year BETWEEN 1986 AND 2000000000;

-- 28b
SELECT COUNT(*) FROM title AS t, kind_type AS kt, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mi.movie_id = midx.movie_id AND kt.kind IN ('movie', 'episode') AND cct1.kind = 'crew' AND cct2.kind = 'complete+verified' AND it1.info = 'countries' AND mi.info IN ('country_1') AND midx.info IN ('votes_0', 'votes_1', 'votes_2', 'votes_3', 'votes_4', 'votes_5') AND k.keyword IN ('kw_0', 'kw_12') AND t.production_year BETWEEN 1991 AND 2000000000;

-- 28c
SELECT COUNT(*) FROM title AS t, kind_type AS kt, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, movie_companies AS mc, company_name AS cn, company_type AS ct, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND mc.company_type_id = ct.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND mi.movie_id = midx.movie_id AND kt.kind IN ('movie', 'episode') AND cct1.kind = 'crew' AND cct2.kind = 'complete+verified' AND it1.info = 'countries' AND mi.info IN ('country_2') AND midx.info IN ('votes_3', 'votes_4', 'votes_5', 'votes_6', 'votes_7', 'votes_8') AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND t.production_year BETWEEN 1996 AND 2000000000;

-- 29a
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it1, movie_keyword AS mk, keyword AS k, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, cast_info AS ci, name AS n, char_name AS chn, role_type AS rt, aka_name AS an, person_info AS pi, info_type AS it2 WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = ci.movie_id AND ci.person_id = n.id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND n.id = an.person_id AND n.id = pi.person_id AND pi.info_type_id = it2.id AND cct1.kind = 'cast' AND cct2.kind = 'complete' AND it1.info = 'release dates' AND it2.info = 'mini biography' AND cn.country_code = '[us]' AND n.gender = 'f' AND rt.role = 'actress' AND k.keyword = 'kw_0' AND t.production_year BETWEEN 2016 AND 2024;

-- 29b
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it1, movie_keyword AS mk, keyword AS k, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, cast_info AS ci, name AS n, char_name AS chn, role_type AS rt, aka_name AS an, person_info AS pi, info_type AS it2 WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = ci.movie_id AND ci.person_id = n.id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND n.id = an.person_id AND n.id = pi.person_id AND pi.info_type_id = it2.id AND cct1.kind = 'cast' AND cct2.kind = 'complete' AND it1.info = 'release dates' AND it2.info = 'mini biography' AND cn.country_code = '[us]' AND n.gender = 'f' AND rt.role = 'actress' AND k.keyword = 'kw_1' AND t.production_year BETWEEN 2010 AND 2015;

-- 29c
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it1, movie_keyword AS mk, keyword AS k, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, cast_info AS ci, name AS n, char_name AS chn, role_type AS rt, aka_name AS an, person_info AS pi, info_type AS it2 WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = ci.movie_id AND ci.person_id = n.id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND n.id = an.person_id AND n.id = pi.person_id AND pi.info_type_id = it2.id AND cct1.kind = 'cast' AND cct2.kind = 'complete' AND it1.info = 'release dates' AND it2.info = 'mini biography' AND cn.country_code = '[us]' AND n.gender = 'f' AND rt.role = 'actress' AND k.keyword = 'kw_2' AND t.production_year BETWEEN 2000 AND 2009;

-- 30a
SELECT COUNT(*) FROM title AS t, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, cast_info AS ci, name AS n, char_name AS chn, role_type AS rt, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = ci.movie_id AND ci.person_id = n.id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND cct1.kind = 'cast' AND cct2.kind = 'complete' AND it1.info = 'genres' AND it2.info = 'rating' AND mi.info IN ('drama', 'comedy', 'romance', 'family') AND midx.info IN ('rating_5', 'rating_6', 'rating_7', 'rating_8', 'rating_9') AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND n.gender = 'm';

-- 30b
SELECT COUNT(*) FROM title AS t, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, cast_info AS ci, name AS n, char_name AS chn, role_type AS rt, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = ci.movie_id AND ci.person_id = n.id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND cct1.kind = 'cast' AND cct2.kind = 'complete' AND it1.info = 'genres' AND it2.info = 'rating' AND mi.info IN ('horror', 'thriller', 'crime', 'mystery') AND midx.info IN ('rating_0', 'rating_1', 'rating_2', 'rating_3', 'rating_4') AND k.keyword IN ('kw_0', 'kw_12') AND n.gender = 'm';

-- 30c
SELECT COUNT(*) FROM title AS t, complete_cast AS cc, comp_cast_type AS cct1, comp_cast_type AS cct2, cast_info AS ci, name AS n, char_name AS chn, role_type AS rt, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.id = cc.movie_id AND cc.subject_id = cct1.id AND cc.status_id = cct2.id AND t.id = ci.movie_id AND ci.person_id = n.id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND cct1.kind = 'cast' AND cct2.kind = 'complete' AND it1.info = 'genres' AND it2.info = 'rating' AND mi.info IN ('documentary', 'biography', 'history', 'short') AND midx.info IN ('rating_4', 'rating_5', 'rating_6', 'rating_7') AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND n.gender = 'm';

-- 31a
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND it1.info = 'genres' AND it2.info = 'rating' AND mi.info IN ('drama', 'comedy', 'romance', 'family') AND midx.info IN ('rating_5', 'rating_6', 'rating_7', 'rating_8', 'rating_9') AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND cn.country_code IN ('[us]') AND n.gender = 'm';

-- 31b
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND it1.info = 'genres' AND it2.info = 'rating' AND mi.info IN ('horror', 'thriller', 'crime', 'mystery') AND midx.info IN ('rating_0', 'rating_1', 'rating_2', 'rating_3', 'rating_4') AND k.keyword IN ('kw_0', 'kw_12') AND cn.country_code IN ('[de]', '[fr]', '[it]', '[es]') AND n.gender = 'm';

-- 31c
SELECT COUNT(*) FROM title AS t, cast_info AS ci, name AS n, aka_name AS an, char_name AS chn, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_info AS mi, info_type AS it1, movie_info_idx AS midx, info_type AS it2, movie_keyword AS mk, keyword AS k WHERE t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND ci.person_role_id = chn.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id AND mi.info_type_id = it1.id AND t.id = midx.movie_id AND midx.info_type_id = it2.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND it1.info = 'genres' AND it2.info = 'rating' AND mi.info IN ('documentary', 'biography', 'history', 'short') AND midx.info IN ('rating_4', 'rating_5', 'rating_6', 'rating_7') AND k.keyword IN ('kw_5', 'kw_200', 'kw_311', 'kw_977') AND cn.country_code IN ('[jp]', '[kr]', '[cn]', '[hk]') AND n.gender = 'm';

-- 32a
SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt, title AS t2 WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND k.keyword = 'kw_0' AND lt.link IN ('follows', 'followed by');

-- 32b
SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt, title AS t2 WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND k.keyword = 'kw_42' AND lt.link IN ('remake of', 'remade as');

-- 33a
SELECT COUNT(*) FROM title AS t1, movie_companies AS mc1, company_name AS cn1, kind_type AS kt1, movie_link AS ml, link_type AS lt, title AS t2, movie_companies AS mc2, company_name AS cn2, kind_type AS kt2 WHERE t1.id = mc1.movie_id AND mc1.company_id = cn1.id AND t1.kind_id = kt1.id AND t1.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND t2.id = mc2.movie_id AND mc2.company_id = cn2.id AND t2.kind_id = kt2.id AND cn1.country_code = '[us]' AND kt1.kind = 'movie' AND kt2.kind IN ('movie', 'episode', 'tv series') AND lt.link IN ('follows', 'followed by');

-- 33b
SELECT COUNT(*) FROM title AS t1, movie_companies AS mc1, company_name AS cn1, kind_type AS kt1, movie_link AS ml, link_type AS lt, title AS t2, movie_companies AS mc2, company_name AS cn2, kind_type AS kt2 WHERE t1.id = mc1.movie_id AND mc1.company_id = cn1.id AND t1.kind_id = kt1.id AND t1.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND t2.id = mc2.movie_id AND mc2.company_id = cn2.id AND t2.kind_id = kt2.id AND cn1.country_code = '[gb]' AND kt1.kind = 'movie' AND kt2.kind IN ('movie', 'episode', 'tv series') AND lt.link IN ('remake of', 'remade as');

-- 33c
SELECT COUNT(*) FROM title AS t1, movie_companies AS mc1, company_name AS cn1, kind_type AS kt1, movie_link AS ml, link_type AS lt, title AS t2, movie_companies AS mc2, company_name AS cn2, kind_type AS kt2 WHERE t1.id = mc1.movie_id AND mc1.company_id = cn1.id AND t1.kind_id = kt1.id AND t1.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND t2.id = mc2.movie_id AND mc2.company_id = cn2.id AND t2.kind_id = kt2.id AND cn1.country_code = '[de]' AND kt1.kind = 'movie' AND kt2.kind IN ('movie', 'episode', 'tv series') AND lt.link IN ('features', 'featured in');
