-- Ext-JOB-lite: 10 join templates that never occur in JOB-lite, 2 variants
-- each, 20 queries over the synthetic IMDB database, for generalization to
-- unseen templates (paper §6.1 discusses Neo's Ext-JOB). Ids e1a..e10b map
-- to templates 101-110. Rendered with query::Query::ToSql; loaded through
-- the SQL frontend. Shapes (relation counts in parentheses):
--   e1  person -> credits -> movie -> alternate title + kind (5)
--   e2  person-centric, no title at all (6)
--   e3  keyworded movie -> link -> target's alternate titles (7)
--   e4  two-hop movie-link chain (8), a shape JOB never uses
--   e5  complete-cast movies with alternate titles and votes (6)
--   e6  company, keyword and language star without info_type dims (7)
--   e7  episodes of a season range with cast and keywords (9)
--   e8  person double-fact: credits and info, with movie genre (8)
--   e9  broad 11-relation star with person and company sides
--   e10 aka-title to aka-name bridge (7): unusual dimension mix

-- e1a
SELECT COUNT(*) FROM name AS n, cast_info AS ci, title AS t, aka_title AS at, kind_type AS kt WHERE n.id = ci.person_id AND ci.movie_id = t.id AND t.id = at.movie_id AND t.kind_id = kt.id AND n.gender = 'f' AND kt.kind = 'movie' AND t.production_year BETWEEN 1950 AND 2010;

-- e1b
SELECT COUNT(*) FROM name AS n, cast_info AS ci, title AS t, aka_title AS at, kind_type AS kt WHERE n.id = ci.person_id AND ci.movie_id = t.id AND t.id = at.movie_id AND t.kind_id = kt.id AND n.gender = 'm' AND kt.kind = 'episode' AND t.production_year BETWEEN 1995 AND 2015;

-- e2a
SELECT COUNT(*) FROM name AS n, person_info AS pi, info_type AS it, aka_name AS an, cast_info AS ci, role_type AS rt WHERE n.id = pi.person_id AND pi.info_type_id = it.id AND n.id = an.person_id AND n.id = ci.person_id AND ci.role_id = rt.id AND it.info = 'mini biography' AND rt.role = 'actor' AND n.name_pcode_cf = 'np_0';

-- e2b
SELECT COUNT(*) FROM name AS n, person_info AS pi, info_type AS it, aka_name AS an, cast_info AS ci, role_type AS rt WHERE n.id = pi.person_id AND pi.info_type_id = it.id AND n.id = an.person_id AND n.id = ci.person_id AND ci.role_id = rt.id AND it.info = 'birth date' AND rt.role = 'producer' AND n.name_pcode_cf = 'np_1';

-- e3a
SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt, title AS t2, aka_title AS at WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND t2.id = at.movie_id AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND lt.link IN ('follows', 'followed by');

-- e3b
SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k, movie_link AS ml, link_type AS lt, title AS t2, aka_title AS at WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = ml.movie_id AND ml.link_type_id = lt.id AND ml.linked_movie_id = t2.id AND t2.id = at.movie_id AND k.keyword IN ('kw_0', 'kw_12') AND lt.link IN ('remake of', 'remade as');

-- e4a
SELECT COUNT(*) FROM title AS t, movie_link AS ml, link_type AS lt1, title AS t2, movie_link AS ml2, link_type AS lt2, title AS t3, kind_type AS kt WHERE t.id = ml.movie_id AND ml.link_type_id = lt1.id AND ml.linked_movie_id = t2.id AND t2.id = ml2.movie_id AND ml2.link_type_id = lt2.id AND ml2.linked_movie_id = t3.id AND t3.kind_id = kt.id AND lt1.link IN ('follows', 'followed by') AND kt.kind = 'movie' AND t.production_year BETWEEN 1991 AND 2000000000;

-- e4b
SELECT COUNT(*) FROM title AS t, movie_link AS ml, link_type AS lt1, title AS t2, movie_link AS ml2, link_type AS lt2, title AS t3, kind_type AS kt WHERE t.id = ml.movie_id AND ml.link_type_id = lt1.id AND ml.linked_movie_id = t2.id AND t2.id = ml2.movie_id AND ml2.link_type_id = lt2.id AND ml2.linked_movie_id = t3.id AND t3.kind_id = kt.id AND lt1.link IN ('remake of', 'remade as') AND kt.kind = 'movie' AND t.production_year BETWEEN 2006 AND 2000000000;

-- e5a
SELECT COUNT(*) FROM title AS t, complete_cast AS cc, comp_cast_type AS cct1, aka_title AS at, kind_type AS kt, movie_info_idx AS midx WHERE t.id = cc.movie_id AND cc.subject_id = cct1.id AND t.id = at.movie_id AND t.kind_id = kt.id AND t.id = midx.movie_id AND cct1.kind = 'cast' AND midx.info IN ('votes_6', 'votes_7', 'votes_8', 'votes_9', 'votes_10', 'votes_11') AND kt.kind = 'movie';

-- e5b
SELECT COUNT(*) FROM title AS t, complete_cast AS cc, comp_cast_type AS cct1, aka_title AS at, kind_type AS kt, movie_info_idx AS midx WHERE t.id = cc.movie_id AND cc.subject_id = cct1.id AND t.id = at.movie_id AND t.kind_id = kt.id AND t.id = midx.movie_id AND cct1.kind = 'crew' AND midx.info IN ('votes_0', 'votes_1', 'votes_2', 'votes_3', 'votes_4', 'votes_5') AND kt.kind = 'movie';

-- e6a
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k, movie_info AS mi, aka_title AS at WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = mi.movie_id AND t.id = at.movie_id AND mk.movie_id = mi.movie_id AND cn.country_code IN ('[us]') AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND mi.info IN ('drama', 'comedy', 'romance', 'family');

-- e6b
SELECT COUNT(*) FROM title AS t, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k, movie_info AS mi, aka_title AS at WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = mi.movie_id AND t.id = at.movie_id AND mk.movie_id = mi.movie_id AND cn.country_code IN ('[de]', '[fr]', '[it]', '[es]') AND k.keyword IN ('kw_0', 'kw_12') AND mi.info IN ('horror', 'thriller', 'crime', 'mystery');

-- e7a
SELECT COUNT(*) FROM title AS t, kind_type AS kt, cast_info AS ci, name AS n, role_type AS rt, char_name AS chn, movie_keyword AS mk, keyword AS k, person_info AS pi WHERE t.kind_id = kt.id AND t.id = ci.movie_id AND ci.person_id = n.id AND ci.role_id = rt.id AND ci.person_role_id = chn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND n.id = pi.person_id AND kt.kind = 'episode' AND t.season_nr BETWEEN 1 AND 3 AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND rt.role = 'guest';

-- e7b
SELECT COUNT(*) FROM title AS t, kind_type AS kt, cast_info AS ci, name AS n, role_type AS rt, char_name AS chn, movie_keyword AS mk, keyword AS k, person_info AS pi WHERE t.kind_id = kt.id AND t.id = ci.movie_id AND ci.person_id = n.id AND ci.role_id = rt.id AND ci.person_role_id = chn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND n.id = pi.person_id AND kt.kind = 'episode' AND t.season_nr BETWEEN 1 AND 10 AND k.keyword IN ('kw_0', 'kw_12') AND rt.role = 'actor';

-- e8a
SELECT COUNT(*) FROM name AS n, aka_name AS an, person_info AS pi, info_type AS it1, cast_info AS ci, title AS t, movie_info AS mi, info_type AS it2 WHERE n.id = an.person_id AND n.id = pi.person_id AND pi.info_type_id = it1.id AND n.id = ci.person_id AND ci.movie_id = t.id AND t.id = mi.movie_id AND mi.info_type_id = it2.id AND it1.info = 'height' AND it2.info = 'genres' AND mi.info IN ('drama', 'comedy', 'romance', 'family') AND n.gender = 'f';

-- e8b
SELECT COUNT(*) FROM name AS n, aka_name AS an, person_info AS pi, info_type AS it1, cast_info AS ci, title AS t, movie_info AS mi, info_type AS it2 WHERE n.id = an.person_id AND n.id = pi.person_id AND pi.info_type_id = it1.id AND n.id = ci.person_id AND ci.movie_id = t.id AND t.id = mi.movie_id AND mi.info_type_id = it2.id AND it1.info = 'height' AND it2.info = 'genres' AND mi.info IN ('horror', 'thriller', 'crime', 'mystery') AND n.gender = 'm';

-- e9a
SELECT COUNT(*) FROM title AS t, kind_type AS kt, cast_info AS ci, name AS n, person_info AS pi, info_type AS it1, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = ci.movie_id AND ci.person_id = n.id AND n.id = pi.person_id AND pi.info_type_id = it1.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND it1.info = 'mini biography' AND kt.kind = 'movie' AND k.keyword IN ('kw_1', 'kw_4', 'kw_9') AND cn.country_code IN ('[us]');

-- e9b
SELECT COUNT(*) FROM title AS t, kind_type AS kt, cast_info AS ci, name AS n, person_info AS pi, info_type AS it1, role_type AS rt, movie_companies AS mc, company_name AS cn, movie_keyword AS mk, keyword AS k WHERE t.kind_id = kt.id AND t.id = ci.movie_id AND ci.person_id = n.id AND n.id = pi.person_id AND pi.info_type_id = it1.id AND ci.role_id = rt.id AND t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id AND it1.info = 'mini biography' AND kt.kind = 'episode' AND k.keyword IN ('kw_0', 'kw_12') AND cn.country_code IN ('[de]', '[fr]', '[it]', '[es]');

-- e10a
SELECT COUNT(*) FROM aka_title AS at, title AS t, cast_info AS ci, name AS n, aka_name AS an, kind_type AS kt, char_name AS chn WHERE at.movie_id = t.id AND t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND at.kind_id = kt.id AND ci.person_role_id = chn.id AND kt.kind = 'movie' AND t.production_year BETWEEN 1950 AND 2010;

-- e10b
SELECT COUNT(*) FROM aka_title AS at, title AS t, cast_info AS ci, name AS n, aka_name AS an, kind_type AS kt, char_name AS chn WHERE at.movie_id = t.id AND t.id = ci.movie_id AND ci.person_id = n.id AND n.id = an.person_id AND at.kind_id = kt.id AND ci.person_role_id = chn.id AND kt.kind = 'episode' AND t.production_year BETWEEN 1995 AND 2015;
