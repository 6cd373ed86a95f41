-- JOB-Complex-lite: 30 harder join templates over the synthetic IMDB
-- database (6-12 relations; self-joins, double-fact patterns, LIKE-prefix
-- and NULL filters). Two variants per family so kLeaveOneOut splits keep
-- every family represented on the training side. Loaded through the SQL
-- frontend (src/sql/); see docs/sql.md for the grammar.

-- c1a
SELECT COUNT(*) FROM title t, kind_type kt, movie_info mi, info_type it1,
movie_keyword mk, keyword k
WHERE t.kind_id = kt.id AND mi.movie_id = t.id AND mi.info_type_id = it1.id
AND mk.movie_id = t.id AND mk.keyword_id = k.id
AND kt.kind = 'movie' AND it1.info = 'genres' AND mi.info = 'drama'
AND t.production_year BETWEEN 1995 AND 2010;

-- c1b
SELECT COUNT(*) FROM title t, kind_type kt, movie_info mi, info_type it1,
movie_keyword mk, keyword k
WHERE t.kind_id = kt.id AND mi.movie_id = t.id AND mi.info_type_id = it1.id
AND mk.movie_id = t.id AND mk.keyword_id = k.id
AND kt.kind = 'episode' AND it1.info = 'genres' AND mi.info = 'comedy'
AND t.production_year > 2005;

-- c2a
SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn,
company_type ct, movie_info mi, info_type it1
WHERE mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id
AND cn.country_code = '[us]' AND ct.kind = 'production companies'
AND it1.info = 'genres' AND mi.info IN ('action', 'thriller')
AND t.production_year > 2000;

-- c2b
SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn,
company_type ct, movie_info mi, info_type it1
WHERE mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id
AND cn.country_code IN ('[de]', '[fr]', '[it]') AND ct.kind = 'distributors'
AND it1.info = 'genres' AND mi.info = 'documentary'
AND t.production_year BETWEEN 1980 AND 2000;

-- c3a
SELECT COUNT(*) FROM title t, cast_info ci, name n, role_type rt,
char_name chn, kind_type kt
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND ci.role_id = rt.id
AND ci.person_role_id = chn.id AND t.kind_id = kt.id
AND rt.role = 'actress' AND n.gender = 'f' AND kt.kind = 'movie'
AND t.production_year > 1990;

-- c3b
SELECT COUNT(*) FROM title t, cast_info ci, name n, role_type rt,
char_name chn, kind_type kt
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND ci.role_id = rt.id
AND ci.person_role_id = chn.id AND t.kind_id = kt.id
AND rt.role = 'actor' AND ci.note = '(voice)' AND kt.kind = 'video movie'
AND t.production_year BETWEEN 1985 AND 2015;

-- c4a
SELECT COUNT(*) FROM title t, cast_info ci, name n, person_info pi1,
info_type it1, role_type rt
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND pi1.person_id = n.id
AND pi1.info_type_id = it1.id AND ci.role_id = rt.id
AND it1.info = 'birth date' AND pi1.info LIKE 'born_1%'
AND rt.role = 'director' AND t.production_year > 1995;

-- c4b
SELECT COUNT(*) FROM title t, cast_info ci, name n, person_info pi1,
info_type it1, role_type rt
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND pi1.person_id = n.id
AND pi1.info_type_id = it1.id AND ci.role_id = rt.id
AND it1.info = 'height' AND n.gender = 'm'
AND rt.role IN ('producer', 'writer') AND t.production_year > 1980;

-- c5a
SELECT COUNT(*) FROM title t, movie_info mi, info_type it1,
movie_info_idx midx, info_type it2, movie_keyword mk, keyword k
WHERE mi.movie_id = t.id AND mi.info_type_id = it1.id
AND midx.movie_id = t.id AND midx.info_type_id = it2.id
AND mk.movie_id = t.id AND mk.keyword_id = k.id
AND it1.info = 'genres' AND mi.info = 'thriller'
AND it2.info = 'rating' AND midx.info IN ('rating_8', 'rating_9')
AND k.keyword LIKE 'kw_1%';

-- c5b
SELECT COUNT(*) FROM title t, movie_info mi, info_type it1,
movie_info_idx midx, info_type it2, movie_keyword mk, keyword k
WHERE mi.movie_id = t.id AND mi.info_type_id = it1.id
AND midx.movie_id = t.id AND midx.info_type_id = it2.id
AND mk.movie_id = t.id AND mk.keyword_id = k.id
AND it1.info = 'genres' AND mi.info IN ('horror', 'crime')
AND it2.info = 'votes' AND midx.info LIKE 'votes_1%'
AND k.phonetic_code = 'pc_3';

-- c6a
SELECT COUNT(*) FROM title t, kind_type kt, movie_companies mc,
company_name cn, company_type ct, movie_info mi, info_type it1
WHERE t.kind_id = kt.id AND mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id
AND kt.kind IN ('movie', 'tv movie') AND cn.country_code = '[gb]'
AND ct.kind = 'production companies' AND it1.info = 'countries'
AND t.production_year > 1998;

-- c6b
SELECT COUNT(*) FROM title t, kind_type kt, movie_companies mc,
company_name cn, company_type ct, movie_info mi, info_type it1
WHERE t.kind_id = kt.id AND mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id
AND kt.kind = 'tv series' AND cn.country_code = '[jp]'
AND ct.kind = 'distributors' AND it1.info = 'languages'
AND t.production_year BETWEEN 1990 AND 2020;

-- c7a
SELECT COUNT(*) FROM title t, cast_info ci, name n, aka_name an,
role_type rt, kind_type kt
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND an.person_id = n.id
AND ci.role_id = rt.id AND t.kind_id = kt.id
AND rt.role = 'actor' AND n.name_pcode_cf LIKE 'np_2%'
AND kt.kind = 'movie' AND t.production_year > 2000;

-- c7b
SELECT COUNT(*) FROM title t, cast_info ci, name n, aka_name an,
role_type rt, kind_type kt
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND an.person_id = n.id
AND ci.role_id = rt.id AND t.kind_id = kt.id
AND rt.role = 'actress' AND n.gender = 'f'
AND kt.kind IN ('movie', 'episode') AND t.production_year BETWEEN 1970 AND 2005;

-- c8a
SELECT COUNT(*) FROM title t, complete_cast cc, comp_cast_type cct1,
comp_cast_type cct2, movie_keyword mk, keyword k, kind_type kt
WHERE cc.movie_id = t.id AND cc.subject_id = cct1.id
AND cc.status_id = cct2.id AND mk.movie_id = t.id AND mk.keyword_id = k.id
AND t.kind_id = kt.id
AND cct1.kind = 'cast' AND cct2.kind = 'complete'
AND k.keyword LIKE 'kw_2%' AND kt.kind = 'movie';

-- c8b
SELECT COUNT(*) FROM title t, complete_cast cc, comp_cast_type cct1,
comp_cast_type cct2, movie_keyword mk, keyword k, kind_type kt
WHERE cc.movie_id = t.id AND cc.subject_id = cct1.id
AND cc.status_id = cct2.id AND mk.movie_id = t.id AND mk.keyword_id = k.id
AND t.kind_id = kt.id
AND cct1.kind = 'crew' AND cct2.kind = 'complete+verified'
AND k.phonetic_code IN ('pc_0', 'pc_1') AND kt.kind = 'episode';

-- c9a
SELECT COUNT(*) FROM title t, movie_link ml, title t2, link_type lt1,
movie_info mi, info_type it1, kind_type kt
WHERE ml.movie_id = t.id AND ml.linked_movie_id = t2.id
AND ml.link_type_id = lt1.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id AND t.kind_id = kt.id
AND lt1.link IN ('follows', 'followed by') AND it1.info = 'genres'
AND mi.info = 'drama' AND kt.kind = 'movie'
AND t2.production_year > 2000;

-- c9b
SELECT COUNT(*) FROM title t, movie_link ml, title t2, link_type lt1,
movie_info mi, info_type it1, kind_type kt
WHERE ml.movie_id = t.id AND ml.linked_movie_id = t2.id
AND ml.link_type_id = lt1.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id AND t.kind_id = kt.id
AND lt1.link IN ('remake of', 'remade as') AND it1.info = 'countries'
AND kt.kind IN ('movie', 'tv movie')
AND t2.production_year BETWEEN 1960 AND 1995;

-- c10a
SELECT COUNT(*) FROM title t, cast_info ci, name n, role_type rt,
movie_companies mc, company_name cn, company_type ct, kind_type kt
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND ci.role_id = rt.id
AND mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND t.kind_id = kt.id
AND rt.role = 'director' AND cn.country_code = '[us]'
AND ct.kind = 'production companies' AND kt.kind = 'movie'
AND t.production_year > 2005;

-- c10b
SELECT COUNT(*) FROM title t, cast_info ci, name n, role_type rt,
movie_companies mc, company_name cn, company_type ct, kind_type kt
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND ci.role_id = rt.id
AND mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND t.kind_id = kt.id
AND rt.role IN ('composer', 'editor') AND cn.country_code = '[fr]'
AND ct.kind = 'distributors' AND kt.kind IN ('movie', 'video movie')
AND t.production_year BETWEEN 1975 AND 2010;

-- c11a
SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k, movie_info mi,
info_type it1, movie_info_idx midx, info_type it2, kind_type kt
WHERE mk.movie_id = t.id AND mk.keyword_id = k.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id AND midx.movie_id = t.id
AND midx.info_type_id = it2.id AND t.kind_id = kt.id
AND k.keyword = 'kw_7' AND it1.info = 'genres' AND mi.info = 'sci-fi'
AND it2.info = 'rating' AND midx.info LIKE 'rating_%' AND kt.kind = 'movie';

-- c11b
SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k, movie_info mi,
info_type it1, movie_info_idx midx, info_type it2, kind_type kt
WHERE mk.movie_id = t.id AND mk.keyword_id = k.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id AND midx.movie_id = t.id
AND midx.info_type_id = it2.id AND t.kind_id = kt.id
AND k.keyword LIKE 'kw_3%' AND it1.info = 'genres'
AND mi.info IN ('fantasy', 'animation') AND it2.info = 'votes'
AND midx.info = 'votes_11' AND kt.kind IN ('movie', 'episode');

-- c12a
SELECT COUNT(*) FROM title t, cast_info ci, name n, person_info pi1,
info_type it1, movie_info mi, info_type it2, role_type rt
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND pi1.person_id = n.id
AND pi1.info_type_id = it1.id AND mi.movie_id = t.id
AND mi.info_type_id = it2.id AND ci.role_id = rt.id
AND it1.info = 'mini biography' AND it2.info = 'genres'
AND mi.info = 'biography' AND rt.role = 'actor'
AND t.production_year > 1990;

-- c12b
SELECT COUNT(*) FROM title t, cast_info ci, name n, person_info pi1,
info_type it1, movie_info mi, info_type it2, role_type rt
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND pi1.person_id = n.id
AND pi1.info_type_id = it1.id AND mi.movie_id = t.id
AND mi.info_type_id = it2.id AND ci.role_id = rt.id
AND it1.info = 'birth date' AND pi1.info = 'born_2'
AND it2.info = 'genres' AND mi.info IN ('war', 'history')
AND rt.role IN ('actor', 'actress');

-- c13a
SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn,
company_type ct, movie_info mi, info_type it1, movie_info_idx midx,
info_type it2, kind_type kt
WHERE mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id AND midx.movie_id = t.id
AND midx.info_type_id = it2.id AND t.kind_id = kt.id
AND cn.country_code = '[us]' AND ct.kind = 'production companies'
AND it1.info = 'genres' AND mi.info = 'drama' AND it2.info = 'rating'
AND midx.info IN ('rating_7', 'rating_8', 'rating_9')
AND kt.kind = 'movie' AND t.production_year > 2000;

-- c13b
SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn,
company_type ct, movie_info mi, info_type it1, movie_info_idx midx,
info_type it2, kind_type kt
WHERE mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id AND midx.movie_id = t.id
AND midx.info_type_id = it2.id AND t.kind_id = kt.id
AND cn.country_code IN ('[gb]', '[ca]', '[au]') AND ct.kind = 'distributors'
AND it1.info = 'languages' AND it2.info = 'votes'
AND midx.info LIKE 'votes_%' AND kt.kind IN ('movie', 'tv movie')
AND t.production_year BETWEEN 1985 AND 2015;

-- c14a
SELECT COUNT(*) FROM title t, cast_info ci, name n, char_name chn,
role_type rt, movie_keyword mk, keyword k, kind_type kt, movie_info mi
WHERE ci.movie_id = t.id AND ci.person_id = n.id
AND ci.person_role_id = chn.id AND ci.role_id = rt.id
AND mk.movie_id = t.id AND mk.keyword_id = k.id AND t.kind_id = kt.id
AND mi.movie_id = t.id
AND rt.role = 'actress' AND k.keyword LIKE 'kw_5%'
AND kt.kind = 'movie' AND mi.info_type_id = 1
AND t.production_year > 1995;

-- c14b
SELECT COUNT(*) FROM title t, cast_info ci, name n, char_name chn,
role_type rt, movie_keyword mk, keyword k, kind_type kt, movie_info mi
WHERE ci.movie_id = t.id AND ci.person_id = n.id
AND ci.person_role_id = chn.id AND ci.role_id = rt.id
AND mk.movie_id = t.id AND mk.keyword_id = k.id AND t.kind_id = kt.id
AND mi.movie_id = t.id
AND rt.role = 'actor' AND ci.note IS NULL AND k.phonetic_code = 'pc_2'
AND kt.kind IN ('movie', 'episode') AND mi.info_type_id = 2
AND t.production_year BETWEEN 1990 AND 2010;

-- c15a
SELECT COUNT(*) FROM title t, complete_cast cc, comp_cast_type cct1,
comp_cast_type cct2, movie_companies mc, company_name cn, company_type ct,
movie_info mi, info_type it1
WHERE cc.movie_id = t.id AND cc.subject_id = cct1.id
AND cc.status_id = cct2.id AND mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id
AND cct1.kind = 'cast' AND cct2.kind = 'complete'
AND cn.country_code = '[us]' AND ct.kind = 'production companies'
AND it1.info = 'genres' AND mi.info = 'action';

-- c15b
SELECT COUNT(*) FROM title t, complete_cast cc, comp_cast_type cct1,
comp_cast_type cct2, movie_companies mc, company_name cn, company_type ct,
movie_info mi, info_type it1
WHERE cc.movie_id = t.id AND cc.subject_id = cct1.id
AND cc.status_id = cct2.id AND mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id
AND cct1.kind IN ('cast', 'crew') AND cct2.kind = 'complete+verified'
AND cn.country_code IN ('[de]', '[nl]') AND ct.kind = 'distributors'
AND it1.info = 'countries';

-- c16a
SELECT COUNT(*) FROM title t, movie_link ml, title t2, link_type lt1,
movie_companies mc, company_name cn, company_type ct, kind_type kt,
movie_info mi
WHERE ml.movie_id = t.id AND ml.linked_movie_id = t2.id
AND ml.link_type_id = lt1.id AND mc.movie_id = t.id
AND mc.company_id = cn.id AND mc.company_type_id = ct.id
AND t.kind_id = kt.id AND mi.movie_id = t2.id
AND lt1.link = 'features' AND cn.country_code = '[us]'
AND ct.kind = 'production companies' AND kt.kind = 'movie'
AND mi.info_type_id = 1 AND t2.production_year > 1990;

-- c16b
SELECT COUNT(*) FROM title t, movie_link ml, title t2, link_type lt1,
movie_companies mc, company_name cn, company_type ct, kind_type kt,
movie_info mi
WHERE ml.movie_id = t.id AND ml.linked_movie_id = t2.id
AND ml.link_type_id = lt1.id AND mc.movie_id = t.id
AND mc.company_id = cn.id AND mc.company_type_id = ct.id
AND t.kind_id = kt.id AND mi.movie_id = t2.id
AND lt1.link IN ('spin off', 'spin off from', 'followed by', 'follows')
AND cn.country_code IN ('[gb]', '[us]')
AND ct.kind IN ('production companies', 'distributors')
AND kt.kind IN ('tv series', 'movie') AND mi.info_type_id IN (1, 2, 3)
AND t2.production_year BETWEEN 1960 AND 2015;

-- c17a
SELECT COUNT(*) FROM title t, cast_info ci, name n, role_type rt,
movie_info mi, info_type it1, movie_info_idx midx, info_type it2,
movie_keyword mk, keyword k
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND ci.role_id = rt.id
AND mi.movie_id = t.id AND mi.info_type_id = it1.id
AND midx.movie_id = t.id AND midx.info_type_id = it2.id
AND mk.movie_id = t.id AND mk.keyword_id = k.id
AND rt.role = 'director' AND it1.info = 'genres' AND mi.info = 'thriller'
AND it2.info = 'rating' AND midx.info IN ('rating_8', 'rating_9')
AND k.keyword LIKE 'kw_1%' AND t.production_year > 2000;

-- c17b
SELECT COUNT(*) FROM title t, cast_info ci, name n, role_type rt,
movie_info mi, info_type it1, movie_info_idx midx, info_type it2,
movie_keyword mk, keyword k
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND ci.role_id = rt.id
AND mi.movie_id = t.id AND mi.info_type_id = it1.id
AND midx.movie_id = t.id AND midx.info_type_id = it2.id
AND mk.movie_id = t.id AND mk.keyword_id = k.id
AND rt.role IN ('actor', 'actress') AND n.gender IS NOT NULL
AND it1.info = 'genres' AND mi.info = 'crime' AND it2.info = 'votes'
AND midx.info LIKE 'votes_1%' AND k.phonetic_code = 'pc_5'
AND t.production_year BETWEEN 1990 AND 2015;

-- c18a
SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn,
company_type ct, cast_info ci, name n, role_type rt, char_name chn,
kind_type kt, movie_info mi
WHERE mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND ci.movie_id = t.id
AND ci.person_id = n.id AND ci.role_id = rt.id
AND ci.person_role_id = chn.id AND t.kind_id = kt.id AND mi.movie_id = t.id
AND cn.country_code = '[us]' AND ct.kind = 'production companies'
AND rt.role = 'actor' AND kt.kind = 'movie' AND mi.info_type_id = 1
AND t.production_year > 2008;

-- c18b
SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn,
company_type ct, cast_info ci, name n, role_type rt, char_name chn,
kind_type kt, movie_info mi
WHERE mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND ci.movie_id = t.id
AND ci.person_id = n.id AND ci.role_id = rt.id
AND ci.person_role_id = chn.id AND t.kind_id = kt.id AND mi.movie_id = t.id
AND cn.country_code IN ('[jp]', '[kr]', '[cn]') AND ct.kind = 'distributors'
AND rt.role = 'actress' AND n.gender = 'f' AND kt.kind IN ('movie', 'episode')
AND mi.info_type_id = 4 AND t.production_year BETWEEN 1995 AND 2020;

-- c19a
SELECT COUNT(*) FROM title t, complete_cast cc, comp_cast_type cct1,
comp_cast_type cct2, cast_info ci, name n, role_type rt, movie_keyword mk,
keyword k, kind_type kt
WHERE cc.movie_id = t.id AND cc.subject_id = cct1.id
AND cc.status_id = cct2.id AND ci.movie_id = t.id AND ci.person_id = n.id
AND ci.role_id = rt.id AND mk.movie_id = t.id AND mk.keyword_id = k.id
AND t.kind_id = kt.id
AND cct1.kind = 'cast' AND cct2.kind = 'complete' AND rt.role = 'writer'
AND k.keyword LIKE 'kw_4%' AND kt.kind = 'movie'
AND t.production_year > 1985;

-- c19b
SELECT COUNT(*) FROM title t, complete_cast cc, comp_cast_type cct1,
comp_cast_type cct2, cast_info ci, name n, role_type rt, movie_keyword mk,
keyword k, kind_type kt
WHERE cc.movie_id = t.id AND cc.subject_id = cct1.id
AND cc.status_id = cct2.id AND ci.movie_id = t.id AND ci.person_id = n.id
AND ci.role_id = rt.id AND mk.movie_id = t.id AND mk.keyword_id = k.id
AND t.kind_id = kt.id
AND cct1.kind = 'crew' AND cct2.kind IN ('complete', 'complete+verified')
AND rt.role = 'cinematographer' AND ci.note IS NOT NULL
AND k.phonetic_code IN ('pc_0', 'pc_4') AND kt.kind IN ('movie', 'tv movie');

-- c20a
SELECT COUNT(*) FROM title t, movie_link ml, title t2, link_type lt1,
movie_info mi, info_type it1, movie_keyword mk, keyword k,
movie_companies mc, company_name cn
WHERE ml.movie_id = t.id AND ml.linked_movie_id = t2.id
AND ml.link_type_id = lt1.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id AND mk.movie_id = t2.id
AND mk.keyword_id = k.id AND mc.movie_id = t.id AND mc.company_id = cn.id
AND lt1.link IN ('references', 'referenced in') AND it1.info = 'genres'
AND mi.info = 'drama' AND k.keyword LIKE 'kw_2%'
AND cn.country_code = '[us]' AND t.production_year > 1995;

-- c20b
SELECT COUNT(*) FROM title t, movie_link ml, title t2, link_type lt1,
movie_info mi, info_type it1, movie_keyword mk, keyword k,
movie_companies mc, company_name cn
WHERE ml.movie_id = t.id AND ml.linked_movie_id = t2.id
AND ml.link_type_id = lt1.id AND mi.movie_id = t.id
AND mi.info_type_id = it1.id AND mk.movie_id = t2.id
AND mk.keyword_id = k.id AND mc.movie_id = t.id AND mc.company_id = cn.id
AND lt1.link IN ('version of', 'similar to') AND it1.info = 'countries'
AND k.keyword LIKE 'kw_%' AND cn.country_code IN ('[us]', '[fr]', '[es]')
AND t.production_year BETWEEN 1960 AND 2015;

-- c21a
SELECT COUNT(*) FROM title t, aka_title akt, kind_type kt, movie_keyword mk,
keyword k, movie_info mi, info_type it1
WHERE akt.movie_id = t.id AND t.kind_id = kt.id AND mk.movie_id = t.id
AND mk.keyword_id = k.id AND mi.movie_id = t.id AND mi.info_type_id = it1.id
AND kt.kind = 'movie' AND akt.kind_id = 1 AND k.keyword LIKE 'kw_6%'
AND it1.info = 'genres' AND mi.info = 'romance'
AND t.production_year > 1990;

-- c21b
SELECT COUNT(*) FROM title t, aka_title akt, kind_type kt, movie_keyword mk,
keyword k, movie_info mi, info_type it1
WHERE akt.movie_id = t.id AND t.kind_id = kt.id AND mk.movie_id = t.id
AND mk.keyword_id = k.id AND mi.movie_id = t.id AND mi.info_type_id = it1.id
AND kt.kind = 'episode' AND akt.kind_id = 2 AND k.phonetic_code = 'pc_1'
AND it1.info = 'genres' AND mi.info IN ('family', 'animation')
AND t.production_year BETWEEN 1995 AND 2020;

-- c22a
SELECT COUNT(*) FROM name n, cast_info ci, title t, role_type rt,
person_info pi1, info_type it1, aka_name an, kind_type kt
WHERE ci.person_id = n.id AND ci.movie_id = t.id AND ci.role_id = rt.id
AND pi1.person_id = n.id AND pi1.info_type_id = it1.id
AND an.person_id = n.id AND t.kind_id = kt.id
AND rt.role = 'actor' AND it1.info = 'birth date'
AND pi1.info LIKE 'born_%' AND kt.kind = 'movie'
AND t.production_year > 2000;

-- c22b
SELECT COUNT(*) FROM name n, cast_info ci, title t, role_type rt,
person_info pi1, info_type it1, aka_name an, kind_type kt
WHERE ci.person_id = n.id AND ci.movie_id = t.id AND ci.role_id = rt.id
AND pi1.person_id = n.id AND pi1.info_type_id = it1.id
AND an.person_id = n.id AND t.kind_id = kt.id
AND rt.role = 'actress' AND n.name LIKE 'person_1%'
AND it1.info = 'mini biography' AND kt.kind IN ('movie', 'tv series')
AND t.production_year BETWEEN 1980 AND 2010;

-- c23a
SELECT COUNT(*) FROM title t, movie_info mi1, movie_info mi2,
info_type it1, info_type it2, kind_type kt
WHERE mi1.movie_id = t.id AND mi2.movie_id = t.id
AND mi1.info_type_id = it1.id AND mi2.info_type_id = it2.id
AND t.kind_id = kt.id
AND it1.info = 'genres' AND mi1.info = 'drama'
AND it2.info = 'countries' AND mi2.info = 'country_0'
AND kt.kind = 'movie' AND t.production_year > 1995;

-- c23b
SELECT COUNT(*) FROM title t, movie_info mi1, movie_info mi2,
info_type it1, info_type it2, kind_type kt
WHERE mi1.movie_id = t.id AND mi2.movie_id = t.id
AND mi1.info_type_id = it1.id AND mi2.info_type_id = it2.id
AND t.kind_id = kt.id
AND it1.info = 'genres' AND mi1.info IN ('comedy', 'romance')
AND it2.info = 'languages' AND mi2.info = 'lang_0'
AND kt.kind IN ('movie', 'tv movie')
AND t.production_year BETWEEN 1985 AND 2015;

-- c24a
SELECT COUNT(*) FROM title t, cast_info ci1, cast_info ci2, name n1,
name n2, role_type rt1, role_type rt2
WHERE ci1.movie_id = t.id AND ci2.movie_id = t.id
AND ci1.person_id = n1.id AND ci2.person_id = n2.id
AND ci1.role_id = rt1.id AND ci2.role_id = rt2.id
AND rt1.role = 'actor' AND rt2.role = 'director'
AND n1.gender = 'm' AND t.production_year > 2005;

-- c24b
SELECT COUNT(*) FROM title t, cast_info ci1, cast_info ci2, name n1,
name n2, role_type rt1, role_type rt2
WHERE ci1.movie_id = t.id AND ci2.movie_id = t.id
AND ci1.person_id = n1.id AND ci2.person_id = n2.id
AND ci1.role_id = rt1.id AND ci2.role_id = rt2.id
AND rt1.role = 'actress' AND rt2.role = 'producer'
AND n1.gender = 'f' AND n2.name_pcode_cf LIKE 'np_1%'
AND t.production_year BETWEEN 1990 AND 2015;

-- c25a
SELECT COUNT(*) FROM title t, cast_info ci1, cast_info ci2, name n1,
name n2, role_type rt1, role_type rt2, movie_companies mc, company_name cn,
company_type ct, kind_type kt
WHERE ci1.movie_id = t.id AND ci2.movie_id = t.id
AND ci1.person_id = n1.id AND ci2.person_id = n2.id
AND ci1.role_id = rt1.id AND ci2.role_id = rt2.id
AND mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND t.kind_id = kt.id
AND rt1.role = 'actor' AND rt2.role = 'actress'
AND cn.country_code = '[us]' AND ct.kind = 'production companies'
AND kt.kind = 'movie' AND t.production_year > 2000;

-- c25b
SELECT COUNT(*) FROM title t, cast_info ci1, cast_info ci2, name n1,
name n2, role_type rt1, role_type rt2, movie_companies mc, company_name cn,
company_type ct, kind_type kt
WHERE ci1.movie_id = t.id AND ci2.movie_id = t.id
AND ci1.person_id = n1.id AND ci2.person_id = n2.id
AND ci1.role_id = rt1.id AND ci2.role_id = rt2.id
AND mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND t.kind_id = kt.id
AND rt1.role = 'director' AND rt2.role = 'writer'
AND cn.country_code IN ('[gb]', '[ie]') AND ct.kind = 'distributors'
AND kt.kind IN ('movie', 'tv movie')
AND t.production_year BETWEEN 1980 AND 2012;

-- c26a
SELECT COUNT(*) FROM title t, movie_keyword mk1, movie_keyword mk2,
keyword k1, keyword k2, movie_info mi, info_type it1, kind_type kt
WHERE mk1.movie_id = t.id AND mk2.movie_id = t.id
AND mk1.keyword_id = k1.id AND mk2.keyword_id = k2.id
AND mi.movie_id = t.id AND mi.info_type_id = it1.id AND t.kind_id = kt.id
AND k1.keyword = 'kw_0' AND k2.keyword LIKE 'kw_1%'
AND it1.info = 'genres' AND mi.info = 'action' AND kt.kind = 'movie';

-- c26b
SELECT COUNT(*) FROM title t, movie_keyword mk1, movie_keyword mk2,
keyword k1, keyword k2, movie_info mi, info_type it1, kind_type kt
WHERE mk1.movie_id = t.id AND mk2.movie_id = t.id
AND mk1.keyword_id = k1.id AND mk2.keyword_id = k2.id
AND mi.movie_id = t.id AND mi.info_type_id = it1.id AND t.kind_id = kt.id
AND k1.keyword = 'kw_1' AND k2.phonetic_code IN ('pc_2', 'pc_3')
AND it1.info = 'genres' AND mi.info IN ('adventure', 'thriller')
AND kt.kind IN ('movie', 'episode');

-- c27a
SELECT COUNT(*) FROM title t, movie_info_idx midx1, movie_info_idx midx2,
movie_info mi, movie_keyword mk, keyword k, kind_type kt
WHERE midx1.movie_id = t.id AND midx2.movie_id = t.id
AND mi.movie_id = t.id AND mk.movie_id = t.id AND mk.keyword_id = k.id
AND t.kind_id = kt.id
AND midx1.info_type_id = 99 AND midx1.info IN ('rating_8', 'rating_9')
AND midx2.info_type_id = 100 AND midx2.info LIKE 'votes_1%'
AND mi.info_type_id = 1 AND k.keyword LIKE 'kw_8%' AND kt.kind = 'movie';

-- c27b
SELECT COUNT(*) FROM title t, movie_info_idx midx1, movie_info_idx midx2,
movie_info mi, movie_keyword mk, keyword k, kind_type kt
WHERE midx1.movie_id = t.id AND midx2.movie_id = t.id
AND mi.movie_id = t.id AND mk.movie_id = t.id AND mk.keyword_id = k.id
AND t.kind_id = kt.id
AND midx1.info_type_id = 99 AND midx1.info = 'rating_9'
AND midx2.info_type_id = 101 AND mi.info_type_id = 1
AND k.phonetic_code = 'pc_6' AND kt.kind IN ('movie', 'tv movie');

-- c28a
SELECT COUNT(*) FROM title t, movie_link ml, title t2, movie_keyword mk1,
movie_keyword mk2, keyword k1, keyword k2, link_type lt1, kind_type kt
WHERE ml.movie_id = t.id AND ml.linked_movie_id = t2.id
AND mk1.movie_id = t.id AND mk2.movie_id = t2.id
AND mk1.keyword_id = k1.id AND mk2.keyword_id = k2.id
AND ml.link_type_id = lt1.id AND t.kind_id = kt.id
AND k1.keyword LIKE 'kw_1%' AND k2.keyword LIKE 'kw_2%'
AND lt1.link = 'follows' AND kt.kind = 'movie'
AND t2.production_year > 1995;

-- c28b
SELECT COUNT(*) FROM title t, movie_link ml, title t2, movie_keyword mk1,
movie_keyword mk2, keyword k1, keyword k2, link_type lt1, kind_type kt
WHERE ml.movie_id = t.id AND ml.linked_movie_id = t2.id
AND mk1.movie_id = t.id AND mk2.movie_id = t2.id
AND mk1.keyword_id = k1.id AND mk2.keyword_id = k2.id
AND ml.link_type_id = lt1.id AND t.kind_id = kt.id
AND k1.keyword LIKE 'kw_%' AND k2.phonetic_code LIKE 'pc_1%'
AND lt1.link IN ('edited into', 'edited from') AND kt.kind IN ('movie', 'episode')
AND t2.production_year BETWEEN 1960 AND 2015;

-- c29a
SELECT COUNT(*) FROM title t, cast_info ci, name n, role_type rt,
char_name chn, person_info pi1, movie_companies mc, company_name cn,
company_type ct, movie_info mi, movie_info_idx midx
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND ci.role_id = rt.id
AND ci.person_role_id = chn.id AND pi1.person_id = n.id
AND mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND mi.movie_id = t.id
AND midx.movie_id = t.id
AND rt.role = 'actor' AND pi1.info_type_id = 21
AND cn.country_code = '[us]' AND ct.kind = 'production companies'
AND mi.info_type_id = 1 AND midx.info_type_id = 99
AND midx.info LIKE 'rating_%' AND t.production_year > 2000;

-- c29b
SELECT COUNT(*) FROM title t, cast_info ci, name n, role_type rt,
char_name chn, person_info pi1, movie_companies mc, company_name cn,
company_type ct, movie_info mi, movie_info_idx midx
WHERE ci.movie_id = t.id AND ci.person_id = n.id AND ci.role_id = rt.id
AND ci.person_role_id = chn.id AND pi1.person_id = n.id
AND mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND mi.movie_id = t.id
AND midx.movie_id = t.id
AND rt.role = 'actress' AND n.gender = 'f' AND pi1.info_type_id = 23
AND cn.country_code IN ('[fr]', '[de]', '[it]') AND ct.kind = 'distributors'
AND mi.info_type_id = 1 AND midx.info_type_id = 100
AND midx.info = 'votes_10' AND t.production_year BETWEEN 1985 AND 2015;

-- c30a
SELECT COUNT(*) FROM title t, kind_type kt, cast_info ci, name n,
role_type rt, movie_companies mc, company_name cn, company_type ct,
movie_keyword mk, keyword k, movie_info mi, movie_info_idx midx
WHERE t.kind_id = kt.id AND ci.movie_id = t.id AND ci.person_id = n.id
AND ci.role_id = rt.id AND mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND mk.movie_id = t.id
AND mk.keyword_id = k.id AND mi.movie_id = t.id AND midx.movie_id = t.id
AND kt.kind = 'movie' AND rt.role = 'actor'
AND cn.country_code = '[us]' AND ct.kind = 'production companies'
AND k.keyword LIKE 'kw_1%' AND mi.info_type_id = 1
AND midx.info_type_id = 99 AND midx.info IN ('rating_8', 'rating_9')
AND t.production_year > 2005;

-- c30b
SELECT COUNT(*) FROM title t, kind_type kt, cast_info ci, name n,
role_type rt, movie_companies mc, company_name cn, company_type ct,
movie_keyword mk, keyword k, movie_info mi, movie_info_idx midx
WHERE t.kind_id = kt.id AND ci.movie_id = t.id AND ci.person_id = n.id
AND ci.role_id = rt.id AND mc.movie_id = t.id AND mc.company_id = cn.id
AND mc.company_type_id = ct.id AND mk.movie_id = t.id
AND mk.keyword_id = k.id AND mi.movie_id = t.id AND midx.movie_id = t.id
AND kt.kind IN ('movie', 'tv movie') AND rt.role IN ('director', 'producer')
AND cn.country_code IN ('[gb]', '[ca]') AND ct.kind = 'distributors'
AND k.phonetic_code = 'pc_7' AND mi.info_type_id = 2
AND midx.info_type_id = 100 AND midx.info LIKE 'votes_%'
AND t.production_year BETWEEN 1990 AND 2018;
